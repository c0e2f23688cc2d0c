"""Cross-query page caching: the LRU :class:`PageCache`, its
:class:`CachePolicy`, the :class:`SingleFlight` fetch deduplicator, and the
light-connection freshness check shared with Section 8's URLCheck.

The paper's cost model charges only for network page accesses, and its
Section 8 machinery shows that a stored page plus a *light connection* (a
HEAD exchanging just an error flag and the ``Last-Modified`` date) can
replace a full download.  This module generalizes that saving from the
materialized store to ordinary query execution:

* :class:`PageCache` — an in-memory LRU of page bodies keyed by URL, each
  :class:`CacheEntry` a snapshot of ``html`` + ``Last-Modified`` (server
  resources are mutable; the cache must observe staleness, not alias it
  away) that also owns the tuples wrapped from that ``html``, so a served
  page is not parsed again.  It is also the materialized store's page set
  (:mod:`repro.materialized.store`);
* :class:`CachePolicy` — ``off`` (bit-for-bit the uncached engine),
  ``per_query`` (entries live for one query), ``cross_query`` (entries
  persist; the first touch per query revalidates with a light connection,
  exactly the §8 ``checked``-flag discipline);
* :class:`SingleFlight` — concurrent callers asking for the same key while
  a download is in flight share the leader's result instead of issuing a
  second network request;
* :func:`freshness_of` — the one implementation of "compare the stored
  modification date against a light connection's", applied by
  :meth:`WebClient.revalidate <repro.web.client.WebClient.revalidate>`
  (the runs of the client's cache revalidation and of the materialized
  store's URLCheck) and by :func:`freshness_from_head` to HEAD responses
  already in hand.

Accounting lives in :class:`~repro.web.client.WebClient` (hits are charged
zero pages, revalidations one light connection each, in submission order);
the cache itself only keeps lifetime statistics for observability and the
per-page-scheme counts the cache-aware planner reads.  A batch reads its
entries through :meth:`PageCache.lookup_batch` — one lock round trip per
shard — and the client settles its outcomes once per batch.
"""

from __future__ import annotations

import enum
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from repro.errors import WebError
from repro.web.resources import HeadResponse, WebResource

__all__ = [
    "CacheEntry",
    "CachePolicy",
    "CacheStats",
    "Freshness",
    "PageCache",
    "SingleFlight",
    "freshness_from_head",
    "freshness_of",
    "shard_of",
    "NO_CACHE",
]


def shard_of(url: str, shards: int) -> int:
    """Deterministic shard index of ``url`` across ``shards`` shards — the
    placement rule of :class:`PageCache`, and so of the materialized
    store's pages (``shards=1`` skips the hash).

    CRC32 rather than ``hash()``: Python string hashing is randomized per
    process, and shard placement must be reproducible across runs so the
    per-shard freshness laws (docs/MATERIALIZED.md) can be asserted against
    committed baselines."""
    if shards == 1:
        return 0
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


@dataclass
class CacheEntry:
    """One page record of §8: a snapshot of the body and its date, the
    tuples wrapped from it, and the date it was last found fresh.

    ``page_scheme`` is carried along so the cache-aware cost model can
    estimate per-page-scheme hit rates (the optimizer inspecting its own
    cache, not the web).

    ``tuples`` maps page-scheme → the tuple wrapped from this entry's own
    ``html``, filled by whoever first wraps a snapshot of it.  It has no
    key, capacity or freshness rule of its own: it is valid exactly as long
    as the entry is and is garbage the moment the entry is dropped or
    replaced.  The tuples are shared by every later query — read-only.

    ``checked_at`` is the materialized store's access date, 0 on a page
    only a query fetched; the other fields are fixed."""

    url: str
    html: str
    last_modified: int
    page_scheme: str = ""
    tuples: dict = field(default_factory=dict, compare=False, repr=False)
    checked_at: int = 0

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


class _Shard:
    """One LRU partition of a :class:`PageCache`: its entries, the URLs
    trusted this query, its cached pages per page-scheme, and its own
    lock."""

    __slots__ = ("entries", "validated", "schemes", "lock")

    def __init__(self):
        self.entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.validated: set[str] = set()
        #: entries per page-scheme, kept as entries come and go (no zeros)
        self.schemes: dict[str, int] = {}
        self.lock = threading.RLock()

    def count(self, entry: CacheEntry, step: int) -> None:
        """Move ``entry``'s page-scheme count by ``step`` (under ``lock``)."""
        scheme = entry.page_scheme
        if scheme:
            left = self.schemes.get(scheme, 0) + step
            if left:
                self.schemes[scheme] = left
            else:
                del self.schemes[scheme]

    def clear(self) -> None:
        self.entries.clear()
        self.validated.clear()
        self.schemes.clear()


class PageCache:
    """A bounded LRU of page snapshots, shared across queries.

    The cache is a passive store: policy decisions (serve / revalidate /
    bypass) and all cost accounting happen in the client, which calls
    :meth:`note` so the lifetime statistics stay accurate.  All methods
    are thread-safe; the engine only touches the cache from the accounting
    thread, but raw clients may be shared across threads.

    ``shards`` partitions the cache by :func:`shard_of` into independent
    LRUs of ``ceil(capacity / shards)`` pages, each with its own lock, so
    concurrent queries contend per shard and eviction pressure in one URL
    region cannot flush the whole cache.  One :class:`CacheStats` covers
    every shard, and the policy is the cache's, so flipping ``policy`` (as
    ``SiteEnv.resolve_options`` does) affects every shard.
    """

    def __init__(
        self,
        capacity: int = 256,
        policy: CachePolicy | str = CachePolicy.CROSS_QUERY,
        shards: int = 1,
    ):
        for name, value in (("capacity", capacity), ("shards", shards)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise WebError(
                    f"PageCache {name} must be a positive integer, got {value!r}"
                )
        self.capacity = capacity
        self.policy = CachePolicy.coerce(policy)
        self.stats = CacheStats()
        self._shard_capacity = -(-capacity // shards)  # ceil division
        self._shards = [_Shard() for _ in range(shards)]
        if shards == 1:  # Function 2 peeks per URL: a C call, no Python frame
            self.peek = self._shards[0].entries.get

    def _shard(self, url: str) -> _Shard:
        shards = self._shards
        return shards[0] if len(shards) == 1 else shards[shard_of(url, len(shards))]

    def _spread(
        self, urls: Sequence[str]
    ) -> Iterator[tuple[_Shard, Sequence[int]]]:
        """Each shard holding some of ``urls``, with their indexes in order."""
        shards = self._shards
        if len(shards) == 1:
            yield shards[0], range(len(urls))
            return
        groups: dict[int, list[int]] = {}
        for index, url in enumerate(urls):
            groups.setdefault(shard_of(url, len(shards)), []).append(index)
        for shard, indexes in sorted(groups.items()):
            yield shards[shard], indexes

    # ------------------------------------------------------------------ #
    # query lifecycle
    # ------------------------------------------------------------------ #

    def begin_query(self) -> None:
        """Start a new query: PER_QUERY drops all entries, CROSS_QUERY only
        forgets which URLs were already revalidated (the paper: "when a
        query is evaluated, all flags are initialized to none")."""
        for shard in self._shards:
            with shard.lock:
                if self.policy is CachePolicy.PER_QUERY:
                    shard.clear()
                shard.validated.clear()

    def mark_validated(self, *urls: str) -> None:
        """Trust ``urls`` without further connections until the next
        query (one lock round trip per shard)."""
        for shard, indexes in self._spread(urls):
            with shard.lock:
                shard.validated.update(urls[i] for i in indexes)

    def is_validated(self, url: str) -> bool:
        shard = self._shard(url)
        with shard.lock:
            return url in shard.validated

    # ------------------------------------------------------------------ #
    # storage
    # ------------------------------------------------------------------ #

    def lookup(self, url: str) -> Optional[CacheEntry]:
        """The entry for ``url`` (bumped to most-recently-used), or None."""
        return self.lookup_batch((url,))[0][0]

    def lookup_batch(
        self, urls: Sequence[str]
    ) -> list[tuple[Optional[CacheEntry], bool]]:
        """``(entry, validated)`` per URL of ``urls``, in order — what
        :meth:`lookup` and :meth:`is_validated` answer, the entries found
        bumped to most-recently-used in that order — in one lock round
        trip per shard."""
        found: list[tuple[Optional[CacheEntry], bool]]
        found = [(None, False)] * len(urls)
        for shard, indexes in self._spread(urls):
            entries, validated = shard.entries, shard.validated
            with shard.lock:
                for i in indexes:
                    url = urls[i]
                    entry = entries.get(url)
                    if entry is not None:
                        entries.move_to_end(url)
                        found[i] = (entry, url in validated)
        return found

    def peek(self, url: str) -> Optional[CacheEntry]:
        """The entry for ``url`` or None, without the LRU bump or the lock."""
        return self._shard(url).entries.get(url)

    def store(self, resource: WebResource) -> CacheEntry:
        """Snapshot ``resource`` into the cache (:meth:`put`)."""
        return self.put(CacheEntry(
            resource.url, resource.html, resource.last_modified, resource.page_scheme
        ))

    def put(self, entry: CacheEntry) -> CacheEntry:
        """Store ``entry``: a URL already cached keeps its place, a new one
        is most recently used (evicting its shard's LRU overflow)."""
        shard = self._shard(entry.url)
        with shard.lock:
            replaced = shard.entries.get(entry.url)
            if replaced is not None:
                shard.count(replaced, -1)
            shard.entries[entry.url] = entry
            shard.count(entry, 1)
            self.stats.stores += 1
            while len(shard.entries) > self._shard_capacity:
                evicted_url, evicted = shard.entries.popitem(last=False)
                shard.validated.discard(evicted_url)
                shard.count(evicted, -1)
                self.stats.evictions += 1
        return entry

    def invalidate(self, url: str) -> None:
        """Drop ``url`` (it changed or vanished behind our back)."""
        shard = self._shard(url)
        with shard.lock:
            dropped = shard.entries.pop(url, None)
            if dropped is not None:
                shard.count(dropped, -1)
                self.stats.invalidations += 1
            shard.validated.discard(url)

    def clear(self) -> None:
        """Drop every entry (capacity and lifetime stats are kept)."""
        for shard in self._shards:
            with shard.lock:
                shard.clear()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def note(self, hits: int = 0, revalidations: int = 0, misses: int = 0) -> None:
        """Add a lookup's or a batch's outcomes to the lifetime statistics."""
        stats = self.stats
        stats.hits += hits
        stats.revalidations += revalidations
        stats.misses += misses

    def urls(self) -> list[str]:
        """Cached URLs, least- to most-recently used within each shard,
        shards in index order (there is no global LRU order across
        shards)."""
        return [entry.url for shard in self.shard_entries() for entry in shard]

    def shard_entries(self) -> list[list[CacheEntry]]:
        """Each shard's entries, least- to most-recently used."""
        entries = []
        for shard in self._shards:
            with shard.lock:
                entries.append(list(shard.entries.values()))
        return entries

    def shard_sizes(self) -> list[int]:
        """Entries per shard, in shard-index order."""
        return [len(shard.entries) for shard in self._shards]

    def scheme_counts(self) -> dict[str, int]:
        """Cached pages per page-scheme — the input of
        :meth:`repro.optimizer.cost.CacheEstimate.from_cache`.  The shards
        keep these counts as entries are stored, replaced, evicted and
        dropped, so this costs O(page-schemes), not a walk of the cache."""
        counts: dict[str, int] = {}
        for shard in self._shards:
            with shard.lock:
                for scheme, count in shard.schemes.items():
                    counts[scheme] = counts.get(scheme, 0) + count
        return counts

    def __len__(self) -> int:
        return sum(self.shard_sizes())

    def __contains__(self, url: str) -> bool:
        return self.peek(url) is not None

    def __repr__(self) -> str:
        shards = f", {len(self._shards)} shards" if len(self._shards) > 1 else ""
        return (
            f"PageCache({len(self)}/{self.capacity} pages{shards}, "
            f"policy={self.policy.value}, {self.stats!r})"
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
        #: made by the first follower, under the group's lock: a leader
        #: nobody waits for (every fetch of a cold, one-worker query)
        #: never pays for an Event
        self.done: Optional[threading.Event] = None
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
            leader = call is None
            if call is None:
                call = self._calls[key] = _InflightCall()
            elif call.done is None:
                call.done = threading.Event()
            done = call.done
        if leader:
            try:
                call.result = fn()
            except BaseException as err:  # propagate to every waiter
                call.error = err
            finally:
                # a follower makes the event while the call is listed, so
                # the one read after unlisting it sees every waiter's
                with self._lock:
                    self._calls.pop(key, None)
                    done = call.done
                if done is not None:
                    done.set()
        else:
            assert done is not None
            done.wait()
        if call.error is not None:
            try:
                raise call.error
            finally:  # the error's traceback holds this frame: no cycle
                del call
        return call.result, leader


# --------------------------------------------------------------------- #
# the shared light-connection freshness check (Function 2's core)
# --------------------------------------------------------------------- #


class Freshness(enum.Enum):
    """Outcome of a light-connection date comparison."""

    FRESH = "fresh"      # stored copy is still current
    STALE = "stale"      # the page changed; re-download
    MISSING = "missing"  # the page vanished behind our back


#: the members bound once: reading one off the class costs ~0.2 µs, and
#: URLCheck compares dates once per light connection
_FRESH, _STALE, _MISSING = Freshness.FRESH, Freshness.STALE, Freshness.MISSING


def freshness_of(known_modified: int, last_modified: Optional[int]) -> Freshness:
    """The §8 comparison itself: a stored copy dated ``known_modified``
    against the ``last_modified`` date a light connection reported
    (None when the page is gone)."""
    if last_modified is None:
        return _MISSING
    if known_modified < last_modified:
        return _STALE
    return _FRESH


def freshness_from_head(head: HeadResponse, known_modified: int) -> Freshness:
    """Classify an already-performed light connection against a stored
    date, so batched revalidation
    (:func:`repro.materialized.maintenance.batch_refresh`, which HEADs a
    whole shard through :meth:`WebClient.head_batch
    <repro.web.client.WebClient.head_batch>` first) applies the identical
    rule to responses it already holds."""
    return freshness_of(known_modified, head.last_modified if head.ok else None)
