"""Per-query page cache.

The paper's cost model counts the number of pages downloaded to answer one
query; within a query, a page reached through two different paths is fetched
once.  :class:`QuerySession` provides exactly that: a fetch-through cache on
top of a :class:`~repro.web.client.WebClient`, plus wrapped-tuple caching so
a page is also parsed only once.

The session is batch-first: :meth:`fetch_tuples` hands a whole URL set to
:meth:`WebClient.get_batch`, which overlaps the round trips over a bounded
worker pool (per the session's :class:`~repro.web.client.FetchConfig`).
The cache sits in front of the batch, so duplicate URLs — within one batch
or across batches of the same query — are downloaded at most once no matter
the concurrency level, keeping measured ``page_downloads`` equal to the
paper's cost function.

Below the session sits the optional *cross-query*
:class:`~repro.web.cache.PageCache` (``cache=``, forwarded to the client):
the session guarantees one download per page per query, the page cache
turns repeat downloads across queries into free hits or light-connection
revalidations — and, because a cache entry owns the tuples wrapped from its
bytes, into pages that need no parsing either.

A session given the plan's read set (:meth:`QuerySession.read_only`) wraps a
page that nobody retains — a live server object — with only the attributes
the plan reads.  A snapshot's tuples are shared with later queries and
subscribers, which may read other attributes, so they are always full.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Union

from repro.clock import BatchSchedule
from repro.engine.compile import CompiledPlan
from repro.errors import ResourceNotFound
from repro.web.cache import PageCache
from repro.web.client import FetchConfig, RetryPolicy, WebClient
from repro.web.resources import WebResource
from repro.wrapper.wrapper import ReadSet, WrapperRegistry

__all__ = ["QuerySession"]


class QuerySession:
    """Fetch-and-wrap cache for the duration of one query."""

    def __init__(
        self,
        client: WebClient,
        registry: WrapperRegistry,
        fetch_config: Optional[FetchConfig] = None,
        retry_policy: Optional[RetryPolicy] = None,
        cache: Optional[PageCache] = None,
    ):
        self.client = client
        self.registry = registry
        self.fetch_config = fetch_config
        self.retry_policy = retry_policy
        self.cache = cache  # None → the client's attached cache
        self._plan: Optional[CompiledPlan] = None  # see read_only
        self._views: dict[str, ReadSet] = {}
        self._resources: dict[str, Optional[WebResource]] = {}
        self._tuples: dict[tuple, Optional[dict]] = {}

    def read_only(self, plan: CompiledPlan) -> None:
        """Wrap live pages with only the paths ``plan`` reads, from the next
        wrap on (the read set is found then: a query served from cached
        snapshots never needs it)."""
        self._plan = plan

    def _target(self, page_scheme: str) -> Union[str, ReadSet]:
        """What a live page of ``page_scheme`` is wrapped as."""
        view = self._views.get(page_scheme)
        if view is None:
            reads = self._plan.reads if self._plan is not None else None
            if reads is None or page_scheme not in reads:
                return page_scheme
            view = self._views[page_scheme] = ReadSet(page_scheme, reads[page_scheme])
        return view

    def seed_resources(
        self, pages: dict[str, Optional[WebResource]]
    ) -> int:
        """Pre-load already-fetched pages into the session (plan-level
        sharing: the multi-query server's navigator hands each subscribed
        query the pages of its navigation prefix).  URLs the session
        already holds are left untouched — the first fetch wins, exactly
        as within a query.  Returns the number of newly injected *live*
        pages (``None`` entries mark known-missing URLs: injected too, so
        the query skips the doomed fetch, but not counted — a solo run
        would not have counted them as downloads either)."""
        injected = 0
        for url, resource in pages.items():
            if url not in self._resources:
                self._resources[url] = resource
                if resource is not None:
                    injected += 1
        return injected

    def fetch(self, url: str) -> Optional[WebResource]:
        """Download ``url`` (at most once per session).  Returns None for
        missing pages (dangling links are tolerated and skipped)."""
        if url not in self._resources:
            try:
                self._resources[url] = self.client.get(
                    url, retry=self.retry_policy, cache=self.cache
                )
            except ResourceNotFound:
                self._resources[url] = None
        return self._resources[url]

    def fetch_batch(
        self,
        urls: Sequence[str],
        schedule: Optional[BatchSchedule] = None,
    ) -> dict[str, Optional[WebResource]]:
        """Download a whole batch of URLs through the client's worker pool.

        Cached URLs are served from the session, so each page costs at most
        one download per query regardless of how many batches mention it.
        Missing pages map to None.  ``schedule`` (pipelined execution)
        places the batch's fetches on a shared timeline instead of a
        private per-batch one; see :meth:`WebClient.get_batch`.  A batch
        fully served from the session completes at ``schedule.ready`` —
        nothing new was fetched.
        """
        needed: list[str] = []
        seen: set[str] = set()
        for url in urls:
            if url not in seen and url not in self._resources:
                seen.add(url)
                needed.append(url)
        if schedule is not None:
            schedule.completed = max(schedule.completed, schedule.ready)
        if needed:
            fetched = self.client.get_batch(
                needed,
                config=self.fetch_config,
                retry=self.retry_policy,
                cache=self.cache,
                schedule=schedule,
            )
            self._resources.update(fetched)
        return {url: self._resources[url] for url in urls if url in self._resources}

    def fetch_tuple(self, page_scheme: str, url: str) -> Optional[dict]:
        """Download and wrap the page at ``url`` as ``page_scheme`` (cached).

        Returns the plain nested tuple, or None when the page is missing.
        """
        if (page_scheme, url) not in self._tuples:
            self.fetch(url)
        return self._tuple(page_scheme, url)

    def fetch_tuples(
        self,
        page_scheme: str,
        urls: Sequence[str],
        schedule: Optional[BatchSchedule] = None,
    ) -> dict[str, dict]:
        """Batch counterpart of :meth:`fetch_tuple`: download all uncached
        ``urls`` as one batch, wrap each page once, and return the plain
        tuples keyed by URL (missing pages are simply absent).
        ``schedule`` is forwarded to :meth:`fetch_batch`."""
        self.fetch_batch(
            [url for url in urls if (page_scheme, url) not in self._tuples],
            schedule=schedule,
        )
        result: dict[str, dict] = {}
        for url in urls:
            plain = self._tuple(page_scheme, url)
            if plain is not None:
                result[url] = plain
        return result

    def _tuple(self, page_scheme: str, url: str) -> Optional[dict]:
        """The already-fetched page at ``url`` as a ``page_scheme`` tuple —
        the session's one wrap site.  A client-side snapshot (cache entry,
        navigator hand-off) carries the tuples wrapped from its bytes so
        far: take the tuple from there, or leave it there for the next
        query.  Shared, therefore read-only, and full.  A live server
        object carries no tuples: nothing is retained, and with a read set
        only what the plan reads is wrapped.  A wrap that raises records
        nothing."""
        key = (page_scheme, url)
        if key in self._tuples:
            return self._tuples[key]
        resource = self._resources.get(url)
        plain = None
        if resource is not None and resource.tuples is None:
            target = self._target(page_scheme)
            plain = self.registry.wrap(target, url, resource.html)
        elif resource is not None:
            plain = resource.tuples.get(page_scheme)
            if plain is None:
                plain = resource.tuples[page_scheme] = self.registry.wrap(
                    page_scheme, url, resource.html
                )
        self._tuples[key] = plain
        return plain

    def touched_resources(self) -> dict[str, Optional[WebResource]]:
        """URL → resource for every page an evaluation through this
        session actually *wrapped* (entry pages and follow targets alike;
        ``None`` marks URLs that turned out missing).  Seeded-but-unused
        pages (:meth:`seed_resources`) are excluded — this is exactly the
        page set a solo run of the same evaluation would have requested,
        which is what the multi-query server fans out per prefix.  Each
        page goes out as a snapshot carrying the tuples wrapped here, so
        whoever it is seeded into does not parse it again — which is why
        a session that wraps partially (:meth:`read_only`) hands out none."""
        assert self._plan is None, "partial tuples are never handed out"
        pages: dict[str, Optional[WebResource]] = {}
        for (page_scheme, url), plain in self._tuples.items():
            resource = pages.get(url) or self._resources.get(url)
            if resource is not None:
                if resource.tuples is None:  # live server object: copy
                    resource = replace(resource, tuples={})
                resource.tuples[page_scheme] = plain
            pages[url] = resource
        return pages

    @property
    def pages_downloaded(self) -> int:
        """Distinct pages actually downloaded in this session."""
        return sum(1 for r in self._resources.values() if r is not None)
