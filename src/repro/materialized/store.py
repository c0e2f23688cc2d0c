"""The materialized ADM store and Function 2 (URLCheck).

Each stored page keeps its wrapped tuple, the logical date it was accessed,
and the ``Last-Modified`` date observed at that access.  URL status flags
(``none`` / ``checked`` / ``new`` / ``missing``) are per-query state, reset
by :meth:`MaterializedStore.reset_status` (the paper: "when a query is
evaluated, all flags are initialized to none").

``URLCheck`` follows the paper's Function 2:

1. a URL flagged ``new`` is downloaded unconditionally (we have no tuple);
2. otherwise a light connection compares modification dates (through
   :func:`repro.web.cache.check_freshness`, the same code path the
   client's cross-query page cache revalidates with — so every light
   connection is counted once, in :meth:`WebClient.head
   <repro.web.client.WebClient.head>`); only a stale page is re-downloaded;
3. after a re-download, outgoing links that appeared are flagged ``new``
   and links that disappeared are flagged ``missing``;
4. the URL itself is flagged ``checked`` so later navigations in the same
   query trust it without another connection.

``shards`` partitions the stored pages by :func:`~repro.web.cache.shard_of`
(CRC32 of the URL, stable across processes), so the batched refresh
(:func:`repro.materialized.maintenance.batch_refresh`) revalidates one
shard per k-lane batch.  The per-query state — flags, the deferred
``check_missing`` queue, transient tuples — is one per store, because a
re-download in one shard may flag link targets stored in another.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.adm.links import outlink_set
from repro.adm.scheme import WebScheme
from repro.errors import MaterializationError, ResourceNotFound
from repro.web.cache import Freshness, check_freshness, shard_of
from repro.web.client import WebClient
from repro.web.resources import WebResource
from repro.wrapper.wrapper import WrapperRegistry

__all__ = ["Status", "StoredPage", "MaterializedStore"]


class Status(enum.Enum):
    """Per-query URL flags (paper, Section 8)."""

    NONE = "none"
    CHECKED = "checked"
    NEW = "new"
    MISSING = "missing"


@dataclass
class StoredPage:
    """One materialized page: tuple + freshness metadata."""

    page_scheme: str
    url: str
    plain: dict
    access_date: int
    modified: int


class MaterializedStore:
    """Locally materialized page-relations over a live site.

    ``retain_schemes`` enables *partial* materialization (the advisor's
    output, :mod:`repro.materialized.advisor`): only pages of the listed
    page-schemes are kept in the store; pages of other schemes are still
    downloaded and wrapped when a query navigates through them, but the
    tuple lives only for the current query (``_transient``, cleared with
    the status flags) — the store pays nothing to keep them fresh.  None
    (the default) retains everything, the paper's Section 8 behaviour.

    ``shards`` is the number of URL-hash partitions (module docstring);
    ``shards[i]`` maps page-scheme → URL → :class:`StoredPage` for shard
    ``i``.
    """

    def __init__(
        self,
        scheme: WebScheme,
        client: WebClient,
        registry: WrapperRegistry,
        retain_schemes: Optional[Iterable[str]] = None,
        shards: int = 1,
    ):
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise MaterializationError(
                f"shards must be a positive integer, got {shards!r}"
            )
        self.scheme = scheme
        self.client = client
        self.registry = registry
        if retain_schemes is None:
            self.retain_schemes: Optional[frozenset[str]] = None
        else:
            self.retain_schemes = frozenset(retain_schemes)
            unknown = self.retain_schemes - set(scheme.page_schemes)
            if unknown:
                raise MaterializationError(
                    f"unknown page-scheme(s) in retain_schemes: "
                    f"{sorted(unknown)}"
                )
        self.shards: list[dict[str, dict[str, StoredPage]]] = [
            {name: {} for name in scheme.page_schemes} for _ in range(shards)
        ]
        self.status: dict[str, Status] = {}
        self.check_missing: set[str] = set()
        #: every stored page by URL, whichever shard holds it
        self._page_of_url: dict[str, StoredPage] = {}
        #: per-query tuples of non-retained pages (partial stores only)
        self._transient: dict[str, dict] = {}

    def _retains(self, page_scheme: str) -> bool:
        return self.retain_schemes is None or page_scheme in self.retain_schemes

    def _shard(self, url: str) -> dict[str, dict[str, StoredPage]]:
        return self.shards[shard_of(url, len(self.shards))]

    # ------------------------------------------------------------------ #
    # initial materialization
    # ------------------------------------------------------------------ #

    def populate(self) -> int:
        """Crawl the whole site once from the entry points and store every
        page (the paper: "we navigate the whole site once, wrap pages, and
        store them locally").  Returns the number of pages stored."""
        frontier = [
            (ep.scheme, ep.url) for ep in self.scheme.entry_points.values()
        ]
        visited: set[str] = set()
        while frontier:
            page_scheme, url = frontier.pop()
            if url in visited:
                continue
            visited.add(url)
            page = self._download(page_scheme, url)
            if page is None:
                continue
            for target_scheme, target_url in (
                (t, u) for u, t in outlink_set(self.scheme, page_scheme, page.plain)
            ):
                if target_url not in visited:
                    frontier.append((target_scheme, target_url))
        self.reset_status()
        return self.page_count()

    # ------------------------------------------------------------------ #
    # store access
    # ------------------------------------------------------------------ #

    @property
    def pages(self) -> dict[str, dict[str, StoredPage]]:
        """page-scheme → URL → :class:`StoredPage`: the live dict of an
        unsharded store, a merged copy otherwise (shards in index order,
        insertion order within a shard)."""
        if len(self.shards) == 1:
            return self.shards[0]
        merged: dict[str, dict[str, StoredPage]] = {
            name: {} for name in self.scheme.page_schemes
        }
        for shard in self.shards:
            for scheme_name, by_url in shard.items():
                merged[scheme_name].update(by_url)
        return merged

    def _pages_of(self, page_scheme: str) -> Iterable[tuple[str, StoredPage]]:
        """The stored (URL, page) pairs of one page-scheme, in ``pages``
        order, without merging the other page-schemes."""
        if page_scheme not in self.scheme.page_schemes:
            raise MaterializationError(f"unknown page-scheme {page_scheme!r}")
        for shard in self.shards:
            yield from shard[page_scheme].items()

    def page_count(self) -> int:
        return sum(len(d) for shard in self.shards for d in shard.values())

    def stored(self, url: str) -> Optional[StoredPage]:
        return self._page_of_url.get(url)

    def tuples_of(self, page_scheme: str) -> dict[str, dict]:
        """All stored tuples of one page-scheme, keyed by URL (no checks)."""
        return {url: page.plain for url, page in self._pages_of(page_scheme)}

    def as_relation(self, page_scheme: str, alias: Optional[str] = None):
        """The materialized page-relation of ``page_scheme`` as a qualified
        nested :class:`~repro.nested.relation.Relation` — "the ADM scheme is
        itself a view over the site, a complex-object one" (Section 8)."""
        from repro.algebra.ast import page_relation_schema
        from repro.engine.local import qualify_row
        from repro.nested.relation import Relation

        schema = page_relation_schema(self.scheme, page_scheme, alias)
        rows = [
            qualify_row(schema, page.plain)
            for _url, page in self._pages_of(page_scheme)
        ]
        return Relation(schema, rows)

    def export_flat(self) -> dict:
        """Decompose every materialized page-relation into flat relations
        (Section 8: PNF nested relations "can be easily decomposed in flat
        relations and stored in a relational DBMS").  Returns
        ``{flat_name: Relation}`` across all page-schemes."""
        from repro.nested.decompose import decompose

        result: dict = {}
        for page_scheme in self.scheme.page_schemes:
            relation = self.as_relation(page_scheme)
            result.update(decompose(relation, page_scheme))
        return result

    def reset_status(self) -> None:
        """Start a new query: all flags back to ``none`` (and drop any
        transient tuples of non-retained pages — they live one query)."""
        self.status.clear()
        self._transient.clear()

    def status_of(self, url: str) -> Status:
        return self.status.get(url, Status.NONE)

    # ------------------------------------------------------------------ #
    # Function 2: URLCheck
    # ------------------------------------------------------------------ #

    def url_check(
        self,
        page_scheme: str,
        url: str,
        max_age: Optional[int] = None,
    ) -> Optional[dict]:
        """Check (and lazily maintain) one page; returns its fresh tuple,
        or None when the page no longer exists.

        ``max_age`` enables the paper's "controlled level of obsolescence":
        a stored tuple accessed within the last ``max_age`` clock ticks is
        trusted without even a light connection.
        """
        status = self.status_of(url)
        if status is Status.CHECKED:
            page = self.stored(url)
            if page is not None:
                return page.plain
            # partial stores: a checked page of a non-retained scheme was
            # kept for this query only
            return self._transient.get(url)

        page = self.stored(url)
        if (
            max_age is not None
            and page is not None
            and status is Status.NONE
            and self.client.server.clock.now() - page.access_date <= max_age
        ):
            return page.plain  # tolerated obsolescence: no connection at all
        if status is Status.NEW or page is None:
            fresh = self._download(page_scheme, url, previous=page)
            if fresh is None:
                self.status[url] = Status.MISSING
                self.check_missing.add(url)
                return None
            self.status[url] = Status.CHECKED
            return fresh.plain

        freshness = check_freshness(self.client, url, page.modified)
        if freshness is Freshness.MISSING:
            # the page was deleted behind our back
            self._remove(url)
            self.status[url] = Status.MISSING
            self.check_missing.add(url)
            return None
        if freshness is Freshness.STALE:
            fresh = self._download(page_scheme, url, previous=page)
            self.status[url] = Status.CHECKED
            return fresh.plain if fresh is not None else None
        # verified fresh: restart the obsolescence window
        page.access_date = self.client.server.clock.now()
        self.status[url] = Status.CHECKED
        return page.plain

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _download(
        self,
        page_scheme: str,
        url: str,
        previous: Optional[StoredPage] = None,
    ) -> Optional[StoredPage]:
        """Download + wrap + store one page; diffs outlinks against the
        previous version to flag new/missing link targets."""
        try:
            resource = self.client.get(url)
        except ResourceNotFound:
            if previous is not None:
                self._remove(url)
                self.check_missing.add(url)
            return None
        return self._ingest(page_scheme, url, resource, previous=previous)

    def _ingest(
        self,
        page_scheme: str,
        url: str,
        resource: WebResource,
        previous: Optional[StoredPage] = None,
    ) -> StoredPage:
        """Wrap + store one already-fetched page (the storage half of
        :meth:`_download`, shared with the batched refresh which fetches
        a whole shard through ``get_batch`` first)."""
        plain = self.registry.wrap(page_scheme, url, resource.html)
        page = StoredPage(
            page_scheme=page_scheme,
            url=url,
            plain=plain,
            access_date=self.client.server.clock.now(),
            modified=resource.last_modified,
        )
        if self._retains(page_scheme):
            self._shard(url)[page_scheme][url] = page
            self._page_of_url[url] = page
        else:
            self._transient[url] = plain

        # Function 2 diffs outlinks only when replacing a stale version:
        # links that appeared are flagged new, links that vanished missing.
        if previous is not None:
            new_links = outlink_set(self.scheme, page_scheme, plain)
            old_links = outlink_set(self.scheme, page_scheme, previous.plain)
            for out_url, _target in new_links - old_links:
                if self.status_of(out_url) is not Status.CHECKED:
                    self.status[out_url] = Status.NEW
            for out_url, _target in old_links - new_links:
                if self.status_of(out_url) is not Status.CHECKED:
                    self.status[out_url] = Status.MISSING
        return page

    def _remove(self, url: str) -> None:
        page = self._page_of_url.pop(url, None)
        if page is not None:
            self._shard(url)[page.page_scheme].pop(url, None)

    def __repr__(self) -> str:
        shards = f" over {len(self.shards)} shards" if len(self.shards) > 1 else ""
        return (
            f"MaterializedStore({self.page_count()} pages{shards}, "
            f"{len(self.check_missing)} pending missing-checks)"
        )
