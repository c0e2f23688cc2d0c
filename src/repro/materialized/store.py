"""The materialized ADM store and Function 2 (URLCheck).

The store keeps its pages in a :class:`~repro.web.cache.PageCache`
(``store.pages``), one :class:`~repro.web.cache.CacheEntry` per page: the
wrapped tuple (``entry.tuples[entry.page_scheme]``), the ``Last-Modified``
date seen at download, and the logical access date (``checked_at``).  A
store whose client carries a ``cross_query`` cache keeps its pages in that
cache — one copy for queries and store; any other store makes its own,
unbounded.  The store reads entries without the LRU bump and fetches
around the client's cache (:data:`~repro.web.cache.NO_CACHE`), so
Function 2's light connection is a stored page's one revalidation.  URL
status flags (``none`` / ``checked`` / ``new`` / ``missing``) are
per-query state, reset by :meth:`MaterializedStore.reset_status` (the
paper: "when a query is evaluated, all flags are initialized to none").

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

Runs of consecutive step-2 URLs share one call
(:meth:`MaterializedStore.check_urls`), with the events of checking one
URL at a time.

The page set's shards (``shards=N``, by :func:`~repro.web.cache.shard_of`)
are the unit of the batched refresh
(:func:`~repro.materialized.maintenance.batch_refresh`), each in
:meth:`MaterializedStore.by_shard` order: page-scheme order, then
first-stored order — reads do not reorder it, and a re-downloaded page
keeps its place.  The per-query state — flags, the deferred
``check_missing`` queue, transient tuples — is one per store, because a
re-download in one shard may flag link targets stored in another.
"""

from __future__ import annotations

import enum
import sys
from itertools import chain
from typing import Iterable, Optional, Sequence

from repro.adm.links import crawl, outlink_set
from repro.adm.scheme import WebScheme
from repro.errors import MaterializationError, ResourceNotFound
from repro.web.cache import NO_CACHE, CacheEntry, CachePolicy, Freshness, PageCache
from repro.web.client import FetchConfig, WebClient
from repro.web.resources import WebResource
from repro.wrapper.wrapper import WrapperRegistry

__all__ = ["Status", "MaterializedStore"]


class Status(enum.Enum):
    """Per-query URL flags (paper, Section 8)."""

    NONE = "none"
    CHECKED = "checked"
    NEW = "new"
    MISSING = "missing"


class MaterializedStore:
    """Locally materialized page-relations over a live site.

    ``retain_schemes`` enables *partial* materialization (the advisor's
    output, :mod:`repro.materialized.advisor`): only pages of the listed
    page-schemes are kept in the store; pages of other schemes are still
    downloaded and wrapped when a query navigates through them, but the
    tuple lives only for the current query (``_transient``, cleared with
    the status flags) — the store pays nothing to keep them fresh.  None
    (the default) retains everything, the paper's Section 8 behaviour.

    ``shards`` partitions a page set the store makes itself (module
    docstring); a store in its client's cache has that cache's shards.
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
        cache = client.cache
        if cache is not None and cache.policy is CachePolicy.CROSS_QUERY:
            if shards != 1:
                raise MaterializationError(f"shards={shards} over a client's cache")
            self.pages = cache
        else:
            self.pages = PageCache(capacity=sys.maxsize, shards=shards)
        #: the store's page order: page-scheme order (stable sorts keep the rest)
        rank = {name: i for i, name in enumerate(scheme.page_schemes)}
        self._order = lambda entry: rank[entry.page_scheme]
        self.status: dict[str, Status] = {}
        #: every URL :meth:`_ingest` flagged ``new``, with its page-scheme
        self._flagged_new: dict[str, str] = {}
        self.check_missing: set[str] = set()
        #: per-query tuples of non-retained pages (partial stores only)
        self._transient: dict[str, dict] = {}

    def _retains(self, page_scheme: str) -> bool:
        return self.retain_schemes is None or page_scheme in self.retain_schemes

    # ------------------------------------------------------------------ #
    # initial materialization
    # ------------------------------------------------------------------ #

    def populate(self, workers: int = 1) -> int:
        """Crawl the whole site once (:func:`~repro.adm.links.crawl`) and
        store every retained page (the paper: "we navigate the whole site
        once, wrap pages, and store them locally").  A retained page the
        store already holds goes through Function 2 (:meth:`check_urls`, in
        level order): a light connection, and a download only if it
        changed.  The other pages of a level download as one
        ``workers``-lane batch.  A held page the crawl no longer reaches is
        out of the view: it is dropped, without a connection.  Returns the
        number of retained pages reached."""
        return self._populate(workers)[0]

    def _populate(self, workers: int) -> tuple[int, int]:
        """:meth:`populate`, also counting the non-retained pages it
        downloaded (the server warm-up's transit pages)."""
        config = FetchConfig(max_workers=workers)
        stored = transit = 0
        reached: set[str] = set()

        def visit(level):
            nonlocal stored, transit
            tuples, fetch = {}, []
            for page_scheme, url in level:
                reached.add(url)
                if self._retains(page_scheme) and self.stored(url) is not None:
                    # a changed page may have flagged this held one ``new``,
                    # which Function 2 would download unchecked; the crawl
                    # reaches each URL once, so no flag of the walk applies
                    self.status.pop(url, None)
                    tuples.update(self.check_urls(page_scheme, (url,)))
                else:
                    fetch.append((page_scheme, url))
            if fetch:
                resources = self.client.get_batch(
                    [url for _, url in fetch], config=config, cache=NO_CACHE
                )
                for page_scheme, url in fetch:
                    resource = resources.get(url)
                    if resource is not None:
                        tuples[url] = self._ingest(page_scheme, url, resource)
                        transit += not self._retains(page_scheme)
            stored += sum(self._retains(s) for s, url in level if url in tuples)
            return tuples

        crawl(self.scheme, visit)
        for entry in chain.from_iterable(self.pages.shard_entries()):
            if entry.url not in reached and self._retains(entry.page_scheme):
                self.pages.invalidate(entry.url)
        self.reset_status()
        return stored, transit

    # ------------------------------------------------------------------ #
    # store access
    # ------------------------------------------------------------------ #

    def by_shard(self) -> list[list[CacheEntry]]:
        """Each shard's stored pages: page-scheme order, then first-stored."""
        return [sorted(shard, key=self._order) for shard in self.pages.shard_entries()]

    def entries(self) -> list[CacheEntry]:
        """Every stored page: page-scheme order, then shard, then first-stored."""
        return sorted(chain.from_iterable(self.pages.shard_entries()), key=self._order)

    def page_count(self) -> int:
        return len(self.pages)

    def stored(self, url: str) -> Optional[CacheEntry]:
        return self.pages.peek(url)

    def tuple_of(self, entry: CacheEntry) -> dict:
        """``entry``'s stored tuple, wrapped now if a query left it unwrapped."""
        tuples, scheme = entry.tuples, entry.page_scheme
        if scheme not in tuples:
            tuples[scheme] = self.registry.wrap(scheme, entry.url, entry.html)
        return tuples[scheme]

    def tuples_of(self, page_scheme: str) -> dict[str, dict]:
        """All stored tuples of one page-scheme, keyed by URL (no checks)."""
        if page_scheme not in self.scheme.page_schemes:
            raise MaterializationError(f"unknown page-scheme {page_scheme!r}")
        return {
            entry.url: self.tuple_of(entry)
            for entry in self.entries()
            if entry.page_scheme == page_scheme
        }

    def as_relation(self, page_scheme: str, alias: Optional[str] = None):
        """The materialized page-relation of ``page_scheme`` as a qualified
        nested :class:`~repro.nested.relation.Relation` — "the ADM scheme is
        itself a view over the site, a complex-object one" (Section 8)."""
        from repro.algebra.ast import page_relation_schema
        from repro.engine.local import qualify_row
        from repro.nested.relation import Relation

        schema = page_relation_schema(self.scheme, page_scheme, alias)
        tuples = self.tuples_of(page_scheme).values()
        return Relation(schema, [qualify_row(schema, plain) for plain in tuples])

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
        self._flagged_new.clear()
        self._transient.clear()

    def status_of(self, url: str) -> Status:
        return self.status.get(url, Status.NONE)

    # ------------------------------------------------------------------ #
    # Function 2: URLCheck
    # ------------------------------------------------------------------ #

    def url_check(
        self, page_scheme: str, url: str, max_age: Optional[int] = None
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
        status, peek, tuple_of = self.status, self.pages.peek, self.tuple_of
        now = self.client.server.clock.now
        # enum members bound once: a class-attribute read costs ~0.2 µs
        NONE, CHECKED, NEW, MISSING = (
            Status.NONE, Status.CHECKED, Status.NEW, Status.MISSING
        )
        FRESH, STALE = Freshness.FRESH, Freshness.STALE
        index, count = 0, len(urls)
        while index < count:
            run: dict[str, CacheEntry] = {}
            end = index
            while end < count:
                url = urls[end]
                flag = status.get(url, NONE)
                page = peek(url)
                if (
                    page is None
                    or flag is CHECKED
                    or flag is NEW
                    or (flag is MISSING and defer_missing)
                    or (
                        max_age is not None
                        and flag is NONE
                        and now() - page.checked_at <= max_age
                    )
                    or url in run
                ):
                    break
                run[url] = page
                end += 1
            if run:
                answers = self.client.revalidate(
                    list(run), [page.last_modified for page in run.values()]
                )
                today = now()
                for (url, page), answer in zip(run.items(), answers):
                    if answer is FRESH:
                        # verified fresh: restart the obsolescence window
                        page.checked_at = today
                        status[url] = CHECKED
                        plain = page.tuples.get(page.page_scheme)  # tuple_of, inlined
                        result[url] = plain or tuple_of(page)  # a tuple is never {}
                    elif answer is STALE:
                        fresh = self._download(page_scheme, url, previous=page)
                        status[url] = CHECKED
                        if fresh is not None:
                            result[url] = fresh
                    else:  # the page was deleted behind our back
                        self._remove(url)
                        status[url] = MISSING
                        self.check_missing.add(url)
                index += len(answers)
                continue
            url = urls[index]
            index += 1
            flag = status.get(url, NONE)
            page = peek(url)
            if flag is CHECKED:
                # partial stores: a checked page of a non-retained scheme
                # was kept for this query only
                plain = tuple_of(page) if page is not None else self._transient.get(url)
                if plain is not None:
                    result[url] = plain
            elif flag is MISSING and defer_missing:
                self.check_missing.add(url)  # probably deleted: check off-line
            elif page is not None and flag is NONE:
                result[url] = tuple_of(page)  # tolerated obsolescence: no connection
            else:  # flagged new, or never stored
                fresh = self._download(page_scheme, url, previous=page)
                if fresh is None:
                    status[url] = MISSING
                    self.check_missing.add(url)
                else:
                    status[url] = CHECKED
                    result[url] = fresh
        return result

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _download(
        self, page_scheme: str, url: str, previous: Optional[CacheEntry] = None
    ) -> Optional[dict]:
        """Download (around the client's cache), wrap and store one page:
        its tuple, or None if it is gone.  :meth:`_ingest` flags links."""
        try:
            resource = self.client.get(url, cache=NO_CACHE)
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
        previous: Optional[CacheEntry] = None,
    ) -> dict:
        """Wrap + store one fetched page (:meth:`_download`, the batched
        crawls and refreshes); diffs outlinks against ``previous`` to flag
        new/missing link targets.  Returns the page's tuple."""
        plain = self.registry.wrap(page_scheme, url, resource.html)
        if self._retains(page_scheme):
            self.pages.put(CacheEntry(
                url, resource.html, resource.last_modified, page_scheme,
                {page_scheme: plain}, checked_at=self.client.server.clock.now(),
            ))
        else:
            self._transient[url] = plain

        # Function 2 diffs outlinks only when replacing a stale version:
        # links that appeared are flagged new, links that vanished missing.
        if previous is not None:
            new_links = outlink_set(self.scheme, page_scheme, plain)
            old_links = outlink_set(self.scheme, page_scheme, self.tuple_of(previous))
            for out_url, target in new_links - old_links:
                if self.status_of(out_url) is not Status.CHECKED:
                    self.status[out_url] = Status.NEW
                    self._flagged_new[out_url] = target
            for out_url, _target in old_links - new_links:
                if self.status_of(out_url) is not Status.CHECKED:
                    self.status[out_url] = Status.MISSING
        return plain

    def _remove(self, url: str) -> None:
        self.pages.invalidate(url)

    def __repr__(self) -> str:
        return (
            f"MaterializedStore({self.page_count()} pages, "
            f"{len(self.check_missing)} pending missing-checks)"
        )
