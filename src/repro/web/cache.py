"""Cross-query page caching: the LRU :class:`PageCache`, its
:class:`CachePolicy`, the :class:`SingleFlight` fetch deduplicator, and the
light-connection freshness check shared with Section 8's URLCheck.

The paper's cost model charges only for network page accesses, and its
Section 8 machinery shows that a stored page plus a *light connection* (a
HEAD exchanging just an error flag and the ``Last-Modified`` date) can
replace a full download.  This module generalizes that saving from the
materialized store to ordinary query execution:

* :class:`PageCache` — an in-memory LRU of page bodies keyed by URL, each
  entry a frozen snapshot of ``html`` + ``Last-Modified`` (server resources
  are mutable; the cache must observe staleness, not alias it away) that
  also owns the tuples wrapped from that ``html``, so a served page is not
  parsed again;
* :class:`CachePolicy` — ``off`` (bit-for-bit the uncached engine),
  ``per_query`` (entries live for one query), ``cross_query`` (entries
  persist; the first touch per query revalidates with a light connection,
  exactly the §8 ``checked``-flag discipline);
* :class:`SingleFlight` — concurrent callers asking for the same key while
  a download is in flight share the leader's result instead of issuing a
  second network request;
* :func:`check_freshness` — the one implementation of "compare the stored
  modification date against a light connection" used by both the client's
  cache revalidation and :meth:`MaterializedStore.url_check
  <repro.materialized.store.MaterializedStore.url_check>`.

Accounting lives in :class:`~repro.web.client.WebClient` (hits are charged
zero pages, revalidations one light connection each, in submission order);
the cache itself only keeps lifetime statistics for observability.
"""

from __future__ import annotations

import enum
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar

from repro.errors import WebError
from repro.web.resources import HeadResponse, WebResource

__all__ = [
    "CacheEntry",
    "CachePolicy",
    "CacheStats",
    "Freshness",
    "PageCache",
    "ShardedPageCache",
    "SingleFlight",
    "check_freshness",
    "freshness_from_head",
    "shard_of",
    "NO_CACHE",
]


def shard_of(url: str, shards: int) -> int:
    """Deterministic shard index of ``url`` across ``shards`` shards.

    CRC32 rather than ``hash()``: Python string hashing is randomized per
    process, and shard placement must be reproducible across runs so the
    per-shard freshness laws (docs/MATERIALIZED.md) can be asserted against
    committed baselines."""
    return zlib.crc32(url.encode("utf-8")) % shards

T = TypeVar("T")


class CachePolicy(enum.Enum):
    """How (and whether) a :class:`PageCache` serves repeated accesses.

    ``OFF``
        Never consult or fill the cache: the client behaves bit-for-bit
        like the uncached engine (same pages, same log, same seconds).
    ``PER_QUERY``
        Entries live for the duration of one query
        (:meth:`PageCache.begin_query` clears them); hits within the query
        cost nothing.  For engine queries this mirrors the per-query
        :class:`~repro.engine.session.QuerySession` dedup at client level,
        so it mainly benefits raw-client users and crawlers.
    ``CROSS_QUERY``
        Entries persist across queries.  The first access per query opens a
        light connection comparing ``Last-Modified`` dates (the §8 URLCheck
        discipline); an unchanged page is served locally and the URL is
        trusted for the rest of the query, a changed one is re-downloaded.
    """

    OFF = "off"
    PER_QUERY = "per_query"
    CROSS_QUERY = "cross_query"

    @classmethod
    def coerce(cls, value: "CachePolicy | str") -> "CachePolicy":
        """Accept a policy or its string name (``"cross_query"`` etc.)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(p.value for p in cls)
            raise WebError(
                f"unknown cache policy {value!r}; expected one of {names}"
            ) from None


@dataclass(frozen=True)
class CacheEntry:
    """One cached page: a frozen snapshot of the body and its date.

    ``page_scheme`` is carried along so the cache-aware cost model can
    estimate per-page-scheme hit rates (the optimizer inspecting its own
    cache, not the web).

    ``tuples`` maps page-scheme → the tuple wrapped from this entry's own
    ``html``, filled by whoever first wraps a snapshot of it.  It has no
    key, capacity or freshness rule of its own: it is valid exactly as long
    as the entry is and is garbage the moment the entry is dropped or
    replaced.  The tuples are shared by every later query — read-only."""

    url: str
    html: str
    last_modified: int
    page_scheme: str = ""
    tuples: dict = field(default_factory=dict, compare=False, repr=False)

    def as_resource(self) -> WebResource:
        """A fresh :class:`WebResource` copy (never the live server object)
        sharing this entry's ``tuples``."""
        return WebResource(
            self.url, self.html, self.last_modified, self.page_scheme, self.tuples
        )


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`PageCache` (never reset by
    ``begin_query``; per-query numbers live in the client's AccessLog)."""

    hits: int = 0
    revalidations: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def pages_saved(self) -> int:
        """Downloads avoided: free hits plus successful revalidations."""
        return self.hits + self.revalidations

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a full download."""
        total = self.hits + self.revalidations + self.misses
        return (self.hits + self.revalidations) / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, revalidations={self.revalidations}, "
            f"misses={self.misses}, evictions={self.evictions}, "
            f"hit_rate={self.hit_rate:.2f})"
        )


class PageCache:
    """A bounded LRU of page snapshots, shared across queries.

    The cache is a passive store: policy decisions (serve / revalidate /
    bypass) and all cost accounting happen in the client, which calls
    :meth:`note_hit` / :meth:`note_revalidation` / :meth:`note_miss` so the
    lifetime statistics stay accurate.  All methods are thread-safe; the
    engine only touches the cache from the accounting thread, but raw
    clients may be shared across threads.
    """

    def __init__(
        self,
        capacity: int = 256,
        policy: CachePolicy | str = CachePolicy.CROSS_QUERY,
    ):
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
            raise WebError(
                f"PageCache capacity must be a positive integer, got {capacity!r}"
            )
        self.capacity = capacity
        self.policy = CachePolicy.coerce(policy)
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._validated: set[str] = set()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # query lifecycle
    # ------------------------------------------------------------------ #

    def begin_query(self) -> None:
        """Start a new query: PER_QUERY drops all entries, CROSS_QUERY only
        forgets which URLs were already revalidated (the paper: "when a
        query is evaluated, all flags are initialized to none")."""
        with self._lock:
            if self.policy is CachePolicy.PER_QUERY:
                self._entries.clear()
            self._validated.clear()

    def mark_validated(self, url: str) -> None:
        """Trust ``url`` without further connections until the next query."""
        with self._lock:
            self._validated.add(url)

    def is_validated(self, url: str) -> bool:
        with self._lock:
            return url in self._validated

    # ------------------------------------------------------------------ #
    # storage
    # ------------------------------------------------------------------ #

    def lookup(self, url: str) -> Optional[CacheEntry]:
        """The entry for ``url`` (bumped to most-recently-used), or None."""
        with self._lock:
            entry = self._entries.get(url)
            if entry is not None:
                self._entries.move_to_end(url)
            return entry

    def store(self, resource: WebResource) -> CacheEntry:
        """Snapshot ``resource`` into the cache (evicting LRU overflow)."""
        entry = CacheEntry(
            url=resource.url,
            html=resource.html,
            last_modified=resource.last_modified,
            page_scheme=resource.page_scheme,
        )
        with self._lock:
            self._entries[resource.url] = entry
            self._entries.move_to_end(resource.url)
            self.stats.stores += 1
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._validated.discard(evicted)
                self.stats.evictions += 1
        return entry

    def invalidate(self, url: str) -> None:
        """Drop ``url`` (it changed or vanished behind our back)."""
        with self._lock:
            if self._entries.pop(url, None) is not None:
                self.stats.invalidations += 1
            self._validated.discard(url)

    def clear(self) -> None:
        """Drop every entry (capacity and lifetime stats are kept)."""
        with self._lock:
            self._entries.clear()
            self._validated.clear()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def note_hit(self) -> None:
        self.stats.hits += 1

    def note_revalidation(self) -> None:
        self.stats.revalidations += 1

    def note_miss(self) -> None:
        self.stats.misses += 1

    def urls(self) -> list[str]:
        """Cached URLs, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def scheme_counts(self) -> dict[str, int]:
        """Cached pages per page-scheme — the input of
        :meth:`repro.optimizer.cost.CacheEstimate.from_cache`."""
        with self._lock:
            counts: dict[str, int] = {}
            for entry in self._entries.values():
                if entry.page_scheme:
                    counts[entry.page_scheme] = counts.get(entry.page_scheme, 0) + 1
            return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, url: str) -> bool:
        with self._lock:
            return url in self._entries

    def __repr__(self) -> str:
        return (
            f"PageCache({len(self)}/{self.capacity} pages, "
            f"policy={self.policy.value}, {self.stats!r})"
        )


class ShardedPageCache(PageCache):
    """A :class:`PageCache` partitioned by URL hash across N shards.

    Each shard is an independent LRU with its own lock, so concurrent
    queries (and the sharded store's batched refresh) contend per shard
    instead of on one global lock, and eviction pressure in one URL region
    cannot flush the whole cache.  Placement is :func:`shard_of` — pure
    CRC32, stable across processes.

    The facade keeps the :class:`PageCache` contract exactly: the client
    calls the same ``lookup`` / ``store`` / ``note_*`` methods (routing by
    URL is internal), ``isinstance(cache, PageCache)`` checks keep
    working, and all shards share one :class:`CacheStats` so lifetime
    observability is unchanged.  Policy semantics live in the facade —
    shard sub-caches are pure storage — so flipping ``policy`` on the
    facade (as ``SiteEnv.resolve_options`` does) affects every shard.

    With ``shards=1`` behaviour is bit-for-bit the unsharded cache: one
    storage dict, same LRU order, same eviction points (per-shard capacity
    is ``ceil(capacity / shards)``, which is ``capacity`` exactly).
    """

    def __init__(
        self,
        capacity: int = 256,
        policy: CachePolicy | str = CachePolicy.CROSS_QUERY,
        shards: int = 4,
    ):
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise WebError(
                f"ShardedPageCache shards must be a positive integer, "
                f"got {shards!r}"
            )
        super().__init__(capacity=capacity, policy=policy)
        per_shard = -(-capacity // shards)  # ceil division
        self._shards = [
            PageCache(capacity=per_shard, policy=self.policy)
            for _ in range(shards)
        ]
        for shard in self._shards:
            # one lifetime-stats object across the facade and every shard:
            # shard-level stores/evictions and facade-level hit/miss notes
            # accumulate into the same counters
            shard.stats = self.stats

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def _shard(self, url: str) -> PageCache:
        return self._shards[shard_of(url, len(self._shards))]

    # -- query lifecycle (policy decisions stay in the facade) ---------- #

    def begin_query(self) -> None:
        for shard in self._shards:
            with shard._lock:
                if self.policy is CachePolicy.PER_QUERY:
                    shard._entries.clear()
                shard._validated.clear()

    def mark_validated(self, url: str) -> None:
        self._shard(url).mark_validated(url)

    def is_validated(self, url: str) -> bool:
        return self._shard(url).is_validated(url)

    # -- storage (routed by URL) ---------------------------------------- #

    def lookup(self, url: str) -> Optional[CacheEntry]:
        return self._shard(url).lookup(url)

    def store(self, resource: WebResource) -> CacheEntry:
        return self._shard(resource.url).store(resource)

    def invalidate(self, url: str) -> None:
        self._shard(url).invalidate(url)

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    # -- observability --------------------------------------------------- #

    def urls(self) -> list[str]:
        """Cached URLs, LRU order *within* each shard, shards in index
        order (there is no meaningful global LRU order across shards)."""
        return [url for shard in self._shards for url in shard.urls()]

    def shard_sizes(self) -> list[int]:
        """Entries per shard, in shard-index order."""
        return [len(shard) for shard in self._shards]

    def scheme_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for shard in self._shards:
            for name, count in shard.scheme_counts().items():
                counts[name] = counts.get(name, 0) + count
        return counts

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, url: str) -> bool:
        return url in self._shard(url)

    def __repr__(self) -> str:
        return (
            f"ShardedPageCache({len(self)}/{self.capacity} pages, "
            f"{len(self._shards)} shards, policy={self.policy.value}, "
            f"{self.stats!r})"
        )


#: An explicitly disabled cache: pass to ``cache=`` parameters to force the
#: uncached code path even when the client carries a default cache.
NO_CACHE = PageCache(capacity=1, policy=CachePolicy.OFF)


# --------------------------------------------------------------------- #
# single-flight deduplication
# --------------------------------------------------------------------- #


class _InflightCall:
    __slots__ = ("done", "result", "error")

    def __init__(self):
        self.done = threading.Event()
        self.result = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Per-key in-flight call sharing (the Go ``singleflight`` idiom).

    ``do(key, fn)`` runs ``fn`` if no call for ``key`` is in flight and
    returns ``(result, True)``; concurrent callers for the same key block
    until the leader finishes and get ``(same_result, False)`` without
    running ``fn``.  The entry is removed once the leader completes, so a
    *later* call runs ``fn`` again — sharing is strictly bounded by the
    in-flight window, which is what keeps cached pages revalidatable.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._calls: dict[object, _InflightCall] = {}

    def do(self, key: object, fn: Callable[[], T]) -> tuple[T, bool]:
        with self._lock:
            call = self._calls.get(key)
            if call is None:
                call = _InflightCall()
                self._calls[key] = call
                leader = True
            else:
                leader = False
        if leader:
            try:
                call.result = fn()
            except BaseException as err:  # propagate to every waiter
                call.error = err
            finally:
                with self._lock:
                    self._calls.pop(key, None)
                call.done.set()
        else:
            call.done.wait()
        if call.error is not None:
            raise call.error
        return call.result, leader


# --------------------------------------------------------------------- #
# the shared light-connection freshness check (Function 2's core)
# --------------------------------------------------------------------- #


class Freshness(enum.Enum):
    """Outcome of a light-connection date comparison."""

    FRESH = "fresh"      # stored copy is still current
    STALE = "stale"      # the page changed; re-download
    MISSING = "missing"  # the page vanished behind our back


def freshness_from_head(head: HeadResponse, known_modified: int) -> Freshness:
    """Classify an already-performed light connection against a stored
    date — the §8 comparison itself, factored out so batched revalidation
    (:func:`repro.materialized.maintenance.batch_refresh`, which HEADs a
    whole shard through :meth:`WebClient.head_batch
    <repro.web.client.WebClient.head_batch>` first) applies the identical
    rule to responses it already holds."""
    if not head.ok:
        return Freshness.MISSING
    if known_modified < head.last_modified:
        return Freshness.STALE
    return Freshness.FRESH


def check_freshness(client, url: str, known_modified: int) -> Freshness:
    """Open one light connection through ``client`` and compare dates.

    This is the single implementation of the §8 URLCheck comparison, used
    by both the client's cross-query cache revalidation and
    :meth:`MaterializedStore.url_check
    <repro.materialized.store.MaterializedStore.url_check>` — so every
    light connection is counted through the one
    :meth:`WebClient.head <repro.web.client.WebClient.head>` code path.
    """
    return freshness_from_head(client.head(url), known_modified)
