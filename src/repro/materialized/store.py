"""The materialized ADM store and Function 2 (URLCheck).

Each stored page keeps its wrapped tuple, the logical date it was accessed,
and the ``Last-Modified`` date observed at that access.  URL status flags
(``none`` / ``checked`` / ``new`` / ``missing``) are per-query state, reset
by :meth:`MaterializedStore.reset_status` (the paper: "when a query is
evaluated, all flags are initialized to none").

``URLCheck`` follows the paper's Function 2
(:meth:`MaterializedStore.check_urls`, over a list of URLs in order):

1. a URL flagged ``new`` is downloaded unconditionally (we have no tuple);
2. otherwise a light connection compares modification dates (through
   :meth:`WebClient.revalidate <repro.web.client.WebClient.revalidate>`,
   the same code path the client's cross-query page cache revalidates
   with — so every light connection is counted once, in the client's
   one charging point); only a stale page is re-downloaded;
3. after a re-download, outgoing links that appeared are flagged ``new``
   and links that disappeared are flagged ``missing``;
4. the URL itself is flagged ``checked`` so later navigations in the same
   query trust it without another connection.

Consecutive URLs that need step 2 are revalidated as one *run*, charged
in one call; a run ends wherever a later URL's check could depend on an
earlier one's outcome (:meth:`MaterializedStore.check_urls`), so the
events are those of checking one URL at a time, in the same order.

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
from typing import Iterable, Optional, Sequence

from repro.adm.links import crawl, outlink_set
from repro.adm.scheme import WebScheme
from repro.errors import MaterializationError, ResourceNotFound
from repro.web.cache import Freshness, shard_of
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
        """Crawl the whole site once (:func:`~repro.adm.links.crawl`) and
        store every page (the paper: "we navigate the whole site once, wrap
        pages, and store them locally").  Returns the number of pages stored."""

        def download(level):
            pages = (self._download(page_scheme, url) for page_scheme, url in level)
            return {page.url: page.plain for page in pages if page is not None}

        crawl(self.scheme, download)
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
        """Function 2 on one page: its fresh tuple, or None when the page
        no longer exists (:meth:`check_urls` with one URL)."""
        return self.check_urls(page_scheme, (url,), max_age).get(url)

    def check_urls(
        self,
        page_scheme: str,
        urls: Sequence[str],
        max_age: Optional[int] = None,
        defer_missing: bool = False,
    ) -> dict[str, dict]:
        """Function 2 over ``urls`` in order: check (and lazily maintain)
        each page; returns URL → fresh tuple for the pages that exist.

        ``max_age`` enables the paper's "controlled level of obsolescence":
        a stored tuple accessed within the last ``max_age`` clock ticks is
        trusted without even a light connection.  ``defer_missing`` is
        navigation's rule (Algorithm 3): a URL flagged ``missing`` is not
        checked now but queued on ``check_missing`` for off-line
        maintenance.

        Consecutive URLs that each need a light connection form one *run*,
        revalidated by :meth:`WebClient.revalidate
        <repro.web.client.WebClient.revalidate>` in one call.  A run ends
        before a URL that needs none (checked, trusted, deferred), one that
        needs a download (flagged ``new`` or not stored) and a URL already
        in the run; the client ends it after a stale or missing answer,
        because that page's download or removal may flag later URLs
        ``new`` or ``missing``.  Every event — HEAD charge, download,
        flag, access date — thus happens in the order the one-URL-at-a-time
        Function 2 would produce it.
        """
        result: dict[str, dict] = {}
        status, stored = self.status, self._page_of_url
        now = self.client.server.clock.now
        # enum members bound once: a class-attribute read costs ~0.2 µs
        NONE, CHECKED, NEW, MISSING = (
            Status.NONE, Status.CHECKED, Status.NEW, Status.MISSING
        )
        FRESH, STALE = Freshness.FRESH, Freshness.STALE
        index, count = 0, len(urls)
        while index < count:
            run: dict[str, StoredPage] = {}
            end = index
            while end < count:
                url = urls[end]
                flag = status.get(url, NONE)
                page = stored.get(url)
                if (
                    page is None
                    or flag is CHECKED
                    or flag is NEW
                    or (flag is MISSING and defer_missing)
                    or (
                        max_age is not None
                        and flag is NONE
                        and now() - page.access_date <= max_age
                    )
                    or url in run
                ):
                    break
                run[url] = page
                end += 1
            if run:
                answers = self.client.revalidate(
                    list(run), [page.modified for page in run.values()]
                )
                today = now()
                for (url, page), answer in zip(run.items(), answers):
                    if answer is FRESH:
                        # verified fresh: restart the obsolescence window
                        page.access_date = today
                        status[url] = CHECKED
                        result[url] = page.plain
                    elif answer is STALE:
                        fresh = self._download(page_scheme, url, previous=page)
                        status[url] = CHECKED
                        if fresh is not None:
                            result[url] = fresh.plain
                    else:  # the page was deleted behind our back
                        self._remove(url)
                        status[url] = MISSING
                        self.check_missing.add(url)
                index += len(answers)
                continue
            url = urls[index]
            index += 1
            flag = status.get(url, NONE)
            page = stored.get(url)
            if flag is CHECKED:
                # partial stores: a checked page of a non-retained scheme
                # was kept for this query only
                plain = page.plain if page is not None else self._transient.get(url)
                if plain is not None:
                    result[url] = plain
            elif flag is MISSING and defer_missing:
                self.check_missing.add(url)  # probably deleted: check off-line
            elif page is not None and flag is NONE:
                result[url] = page.plain  # tolerated obsolescence: no connection
            else:  # flagged new, or never stored
                fresh = self._download(page_scheme, url, previous=page)
                if fresh is None:
                    status[url] = MISSING
                    self.check_missing.add(url)
                else:
                    status[url] = CHECKED
                    result[url] = fresh.plain
        return result

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
