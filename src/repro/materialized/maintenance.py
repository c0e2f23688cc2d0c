"""Off-line maintenance (paper, Section 8, final paragraphs).

URLs flagged ``missing`` during query evaluation "may correspond to deleted
pages ... we decide to defer this check, and do it periodically off-line":
:func:`process_check_missing` drains the deferred queue with light
connections, dropping tuples whose pages are really gone.

"To guarantee the overall consistency, it is still possible to periodically
check the whole view and maintain it where necessary":
:func:`full_refresh` URL-checks every stored page and re-crawls from the
entry points to pick up pages no stored link reaches yet.
:func:`consistency_report` measures how inconsistent a store has become
(dangling stored links, stale pages) without repairing anything.

:func:`batch_refresh` is the sharded, batched variant of the periodic
check; its :class:`RefreshReport` makes the freshness laws assertable per
shard (``benchmarks/bench_advisor.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adm.links import crawl, outlink_set
from repro.materialized.store import MaterializedStore, Status
from repro.obs.metrics import METRICS
from repro.obs.trace import NULL_TRACER
from repro.web.cache import NO_CACHE, CacheEntry, Freshness, freshness_from_head
from repro.web.client import FetchConfig

__all__ = ["process_check_missing", "full_refresh", "batch_refresh",
           "consistency_report", "ConsistencyReport", "RefreshReport",
           "ShardRefresh"]


def process_check_missing(store: MaterializedStore) -> dict:
    """Drain the CheckMissing queue.  Returns counts:
    ``{"checked": n, "deleted": n, "still_alive": n}``."""
    queue = sorted(store.check_missing)
    store.check_missing.clear()
    heads = store.client.head_batch(queue, workers=1)
    deleted = 0
    for url in queue:
        if not heads[url].ok:
            deleted += 1
            store._remove(url)
    return {
        "checked": len(queue),
        "deleted": deleted,
        "still_alive": len(queue) - deleted,
    }


def full_refresh(store: MaterializedStore) -> dict:
    """Check every stored page and re-crawl from the entry points.

    Returns ``{"checked": n, "redownloaded": n, "added": n, "removed": n}``.
    """
    store.reset_status()
    before_downloads = store.client.log.page_downloads
    before_count = store.page_count()

    # check every stored page (light connection each; downloads when stale)
    # (a page-scheme's checks add, replace or drop only its own pages)
    for page_scheme in store.scheme.page_schemes:
        store.check_urls(page_scheme, list(store.tuples_of(page_scheme)))

    # discover pages no stored page linked to before the refresh
    def check(level):
        return {url: store.url_check(page_scheme, url) for page_scheme, url in level}

    checked = crawl(store.scheme, check)
    result = process_check_missing(store)
    return {
        "checked": checked,
        "redownloaded": store.client.log.page_downloads - before_downloads,
        "added": max(0, store.page_count() - before_count),
        "removed": result["deleted"],
    }


@dataclass
class ConsistencyReport:
    """How far the store has drifted from the live site."""

    stored_pages: int = 0
    stale_pages: int = 0
    dangling_links: list = field(default_factory=list)
    unstored_link_targets: list = field(default_factory=list)

    @property
    def is_consistent(self) -> bool:
        return (
            not self.stale_pages
            and not self.dangling_links
            and not self.unstored_link_targets
        )


@dataclass
class ShardRefresh:
    """Measured refresh outcome of one shard (store index order).

    ``light_connections`` / ``downloads`` / ``seconds`` are exact log
    deltas of the shard's phase, so the per-shard freshness laws can be
    asserted directly: a warm shard shows ``light_connections == pages``
    and ``downloads == 0``; after a mutation touching ``t`` of the
    shard's pages it shows ``redownloaded == downloads == t``."""

    shard: int
    pages: int
    fresh: int
    redownloaded: int
    removed: int
    light_connections: int
    downloads: int
    seconds: float


@dataclass
class RefreshReport:
    """Aggregate of one :func:`batch_refresh` run."""

    shards: list = field(default_factory=list)
    #: pages discovered through new links and added to the store
    added: int = 0
    added_downloads: int = 0
    #: deferred ``check_missing`` entries confirmed deleted at the end
    deferred_deleted: int = 0

    @property
    def checked(self) -> int:
        return sum(row.pages for row in self.shards)

    @property
    def redownloaded(self) -> int:
        return sum(row.redownloaded for row in self.shards)

    @property
    def removed(self) -> int:
        return sum(row.removed for row in self.shards) + self.deferred_deleted

    @property
    def light_connections(self) -> int:
        return sum(row.light_connections for row in self.shards)

    @property
    def downloads(self) -> int:
        return sum(row.downloads for row in self.shards) + self.added_downloads

    @property
    def seconds(self) -> float:
        return sum(row.seconds for row in self.shards)

    def __repr__(self) -> str:
        return (
            f"RefreshReport({len(self.shards)} shards, {self.checked} checked, "
            f"{self.redownloaded} re-downloaded, {self.added} added, "
            f"{self.removed} removed, {self.light_connections} light)"
        )


def _refresh_shard(
    store: MaterializedStore,
    entries: list[CacheEntry],
    index: int,
    workers: int,
    tracer,
) -> ShardRefresh:
    """Revalidate one shard (``store.by_shard()[index]``): one HEAD batch,
    one GET batch for the stale."""
    client = store.client
    before = client.log.snapshot()
    with tracer.span(
        "refresh_shard", kind="maintenance", shard=index, pages=len(entries)
    ):
        heads = client.head_batch([page.url for page in entries], workers=workers)
        now = client.server.clock.now()
        fresh = removed = redownloaded = 0
        stale: list[CacheEntry] = []
        for page in entries:
            outcome = freshness_from_head(heads[page.url], page.last_modified)
            if outcome is Freshness.FRESH:
                fresh += 1
                page.checked_at = now
                store.status[page.url] = Status.CHECKED
            elif outcome is Freshness.STALE:
                stale.append(page)
            else:
                store._remove(page.url)
                removed += 1
        resources = client.get_batch(
            [page.url for page in stale],
            config=FetchConfig(max_workers=workers),
            cache=NO_CACHE,
        )
        for page in stale:
            resource = resources.get(page.url)
            if resource is None:
                # vanished between the HEAD and the GET: treat as deleted
                store._remove(page.url)
                store.check_missing.add(page.url)
                removed += 1
                continue
            store._ingest(page.page_scheme, page.url, resource, previous=page)
            store.status[page.url] = Status.CHECKED
            redownloaded += 1
        delta = client.log.delta(before)
    pages_total = METRICS.counter(
        "repro_store_refresh_pages_total",
        "store-refresh page outcomes by shard",
    )
    pages_total.inc(fresh, shard=str(index), outcome="fresh")
    pages_total.inc(redownloaded, shard=str(index), outcome="stale")
    pages_total.inc(removed, shard=str(index), outcome="removed")
    METRICS.histogram(
        "repro_store_refresh_seconds",
        "simulated seconds per shard-refresh phase",
    ).observe(delta.simulated_seconds, shard=str(index))
    return ShardRefresh(
        shard=index,
        pages=len(entries),
        fresh=fresh,
        redownloaded=redownloaded,
        removed=removed,
        light_connections=delta.light_connections,
        downloads=delta.page_downloads,
        seconds=delta.simulated_seconds,
    )


def _fetch_new_targets(store: MaterializedStore, workers: int) -> tuple[int, int]:
    """Download the link targets the shard re-downloads flagged ``new``.

    :meth:`~MaterializedStore._ingest` records each target as it flags it.
    Those still flagged ``new``, unstored and retained are fetched as one
    ``workers``-lane batch, in URL order.  The batch passes no previous
    version, so it flags nothing: there is no second wave."""
    wave = {
        url: target
        for url, target in store._flagged_new.items()
        if store.status_of(url) is Status.NEW
        and store.stored(url) is None
        and store._retains(target)
    }
    if not wave:
        return 0, 0
    client = store.client
    before = client.log.snapshot()
    urls = sorted(wave)
    resources = client.get_batch(
        urls, config=FetchConfig(max_workers=workers), cache=NO_CACHE
    )
    added = 0
    for url in urls:
        resource = resources.get(url)
        if resource is None:
            store.status[url] = Status.MISSING
            store.check_missing.add(url)
            continue
        store._ingest(wave[url], url, resource)
        store.status[url] = Status.CHECKED
        added += 1
    return added, client.log.delta(before).page_downloads


def batch_refresh(
    store: MaterializedStore,
    workers: int = 1,
    tracer=None,
) -> RefreshReport:
    """Refresh the whole store with batched, shard-parallel revalidation.

    For each of ``store.by_shard()`` the stored pages are
    HEAD-ed as one ``workers``-lane batch and the stale ones re-downloaded
    as another, so the refresh traffic of a large site overlaps on the
    simulated :class:`~repro.clock.Timeline` exactly like a query's fetch
    batches; pages that vanished are dropped.  Link targets that appeared
    on re-downloaded pages are then fetched as one more batch, and the
    deferred ``check_missing`` queue is drained last (as in
    :func:`full_refresh`).  With ``workers=1`` the page/light counts *and*
    the simulated time are bit-for-bit the serial loop's.

    Returns a :class:`RefreshReport` with exact per-shard log deltas."""
    tracer = tracer if tracer is not None else NULL_TRACER
    store.reset_status()
    report = RefreshReport()
    with tracer.span(
        "store_refresh",
        kind="maintenance",
        shards=len(store.pages.shard_sizes()),
        workers=workers,
    ):
        for index, entries in enumerate(store.by_shard()):
            report.shards.append(
                _refresh_shard(store, entries, index, workers, tracer)
            )
        report.added, report.added_downloads = _fetch_new_targets(
            store, workers
        )
        report.deferred_deleted = process_check_missing(store)["deleted"]
    return report


def consistency_report(store: MaterializedStore) -> ConsistencyReport:
    """Measure store/site drift using only light connections: one per
    stored page and one per distinct unstored link target, however many
    stored pages link to it."""
    report = ConsistencyReport(stored_pages=store.page_count())
    client = store.client
    stored = store.entries()
    heads = client.head_batch([page.url for page in stored], workers=1)
    links = [
        (page.url, link_url)
        for page in stored
        for link_url, _target in outlink_set(
            store.scheme, page.page_scheme, store.tuple_of(page)
        )
        if link_url not in heads
    ]
    targets = client.head_batch([link_url for _, link_url in links], workers=1)
    for page in stored:
        fresh = freshness_from_head(heads[page.url], page.last_modified)
        if fresh is not Freshness.FRESH:
            report.stale_pages += 1
    for url, link_url in links:
        if targets[link_url].ok:
            report.unstored_link_targets.append((url, link_url))
        else:
            report.dangling_links.append((url, link_url))
    return report
