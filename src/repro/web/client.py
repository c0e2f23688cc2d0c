"""The web client, its access log, and the batched fetch engine.

:class:`AccessLog` is the measured counterpart of the paper's cost function:
``page_downloads`` counts full GETs (the paper's only cost for virtual
views) and ``light_connections`` counts HEADs (Section 8's cheap checks).
The executor resets or snapshots the log around each query to report
per-query costs.  ``attempts`` and per-fetch :class:`FetchRecord` entries
additionally expose retry and concurrency behaviour.

``WebClient.get`` performs a network download unless the client carries a
:class:`~repro.web.cache.PageCache` that can serve the URL — a free hit
under ``per_query`` scope, a light-connection revalidation under
``cross_query`` (the Section 8 saving, generalized from the materialized
store to every query).  Per-query deduplication of repeated accesses
remains the executor's job (:class:`repro.engine.session.QuerySession`);
the cache sits *below* it and spans queries.

``WebClient.get_batch`` is the batch-first entry point: a whole set of URLs
is fetched through a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
worker pool, with transient failures (injected by a
:class:`~repro.web.server.FaultPolicy`) retried per :class:`RetryPolicy`.
Fetches are additionally *single-flighted* (:class:`~repro.web.cache.
SingleFlight`): concurrent lanes — including concurrent batches issued by
different threads against one client — requesting the same URL share one
download.  Accounting stays deterministic under concurrency: workers
perform only the pure fetch; all log mutation happens on the calling
thread in submission order (cache hits charged zero pages, revalidations
one light connection each, before the batch's network fetches), and the
batch's simulated wall time is the makespan of a greedy schedule of the
per-fetch durations over the available connections
(:meth:`~repro.web.network.NetworkModel.batch_seconds`).  Page *counts*
are therefore identical at every pool size — only wall time shrinks — and
with the cache off they are bit-for-bit those of the uncached engine.

A batch is accounted as a batch: one bulk cache read, revalidation in
:meth:`WebClient.revalidate` runs, one log-lock round trip for the cache's
outcomes and one for the GETs (``get`` is a batch of one).
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import add
from typing import NamedTuple, Optional, Sequence

from repro.clock import BatchSchedule, Timeline
from repro.errors import (
    ResourceNotFound,
    RetriesExhaustedError,
    TransientFetchError,
)
from repro.obs.metrics import METRICS
from repro.obs.trace import NULL_TRACER
from repro.web.cache import (
    CachePolicy,
    Freshness,
    PageCache,
    SingleFlight,
    freshness_of,
)
from repro.web.network import MODEM_1998, NetworkModel
from repro.web.resources import HeadResponse, WebResource
from repro.web.server import SimulatedWebServer

__all__ = [
    "AccessLog",
    "CostSummary",
    "FetchConfig",
    "FetchRecord",
    "LogMark",
    "RetryPolicy",
    "WebClient",
    "DEFAULT_RETRY_POLICY",
    "NO_RETRY",
]

@dataclass(frozen=True)
class RetryPolicy:
    """How a client treats transient fetch failures.

    ``max_attempts`` bounds the total number of tries (1 means no retry);
    between tries the client backs off exponentially *in simulated time*:
    retry *n* (n ≥ 2) waits ``backoff_seconds * backoff_factor**(n-2)``.
    Failed attempts additionally cost one round trip (the timed-out / error
    response).  Permanent failures (404s) are never retried.
    """

    max_attempts: int = 4
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.backoff_seconds < 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be non-negative and non-shrinking")

    def backoff_before(self, attempt: int) -> float:
        """Simulated delay inserted before attempt ``attempt`` (2-based)."""
        if attempt <= 1:
            return 0.0
        return self.backoff_seconds * self.backoff_factor ** (attempt - 2)


#: Defaults tuned so that a 10% transient failure rate is survived with
#: overwhelmingly high probability (0.1^4 per fetch).
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Fail on the first transient error (the pre-retry behaviour).
NO_RETRY = RetryPolicy(max_attempts=1)


@dataclass(frozen=True)
class FetchConfig:
    """Executor-side knobs for batched fetching.

    ``max_workers`` bounds the worker pool (and the simulated number of
    parallel connections) for one batch; ``None`` defers to the network
    model's ``parallel_connections``.
    """

    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_workers is None:
            return
        if isinstance(self.max_workers, bool) or not isinstance(
            self.max_workers, int
        ):
            raise ValueError(
                f"FetchConfig.max_workers must be a positive integer or "
                f"None, got {self.max_workers!r}"
            )
        if self.max_workers < 1:
            raise ValueError(
                f"FetchConfig.max_workers must be at least 1, got "
                f"{self.max_workers} (use None to follow the network "
                f"model's parallel_connections)"
            )

    def effective_workers(self, network: NetworkModel) -> int:
        """Concurrency level for a batch under ``network``."""
        if self.max_workers is not None:
            return self.max_workers
        return network.parallel_connections


#: Follow the network model's ``parallel_connections``.
DEFAULT_FETCH_CONFIG = FetchConfig()


@dataclass(frozen=True)
class FetchRecord:
    """Per-fetch telemetry: timing, retry attempts, concurrency level.

    ``transient_failures`` counts the injected faults absorbed before the
    outcome; ``error`` classifies a failed fetch (``"not_found"`` or
    ``"exhausted"``, empty for success).  Together they let
    :meth:`AccessLog.reconcile` re-derive every aggregate counter from the
    per-fetch records alone."""

    url: str
    seconds: float
    attempts: int
    concurrency: int
    ok: bool
    transient_failures: int = 0
    error: str = ""


@dataclass(frozen=True)
class CostSummary:
    """The one cost shape shared by engine results and planner estimates.

    ``pages`` is the paper's cost measure C(E); the other fields are the
    modern trimmings (light connections, bytes, simulated wall time, request
    attempts including retries).  ``cache_hits`` / ``revalidations`` /
    ``pages_saved`` expose the page-cache's contribution: downloads avoided
    by serving cached bodies (for free, or for one light connection each).
    Estimated summaries report 0.0 for ``simulated_seconds``, which is only
    measurable at run time.
    """

    pages: float
    light_connections: float
    bytes: float
    simulated_seconds: float
    attempts: float
    cache_hits: float = 0.0
    revalidations: float = 0.0
    pages_saved: float = 0.0
    pages_shared: float = 0.0

    @classmethod
    def from_log(cls, log: "AccessLog") -> "CostSummary":
        """Measured summary of an :class:`AccessLog` (or a log delta)."""
        return cls(
            pages=log.page_downloads,
            light_connections=log.light_connections,
            bytes=log.bytes_downloaded,
            simulated_seconds=log.simulated_seconds,
            attempts=log.attempts,
            cache_hits=log.cache_hits,
            revalidations=log.revalidations,
            pages_saved=log.pages_saved,
            pages_shared=log.pages_shared,
        )

    def priced_pages(self, light_weight: float) -> float:
        """C(E) with the light connections priced in: downloads plus
        ``light_weight`` (``SiteEnv.light_weight``) pages per light one."""
        return self.pages + light_weight * self.light_connections

    def __repr__(self) -> str:
        return (
            f"CostSummary(pages={self.pages}, light={self.light_connections}, "
            f"bytes={self.bytes:.0f}, seconds={self.simulated_seconds:.3f}, "
            f"attempts={self.attempts}, saved={self.pages_saved})"
        )


@dataclass(frozen=True)
class LogMark:
    """An :class:`AccessLog`'s counters at one instant plus how many entries
    its two append-only lists had ever received — what
    :meth:`AccessLog.snapshot` returns and :meth:`AccessLog.delta` subtracts.
    Every query takes one, so it must not cost a copy of the log; while it
    is alive the log keeps every entry appended after it."""

    page_downloads: int
    light_connections: int
    failed_requests: int
    bytes_downloaded: int
    simulated_seconds: float
    attempts: int
    cache_hits: int
    revalidations: int
    pages_saved: int
    pages_shared: int
    urls: int
    records: int


class _Tally(NamedTuple):
    """What :meth:`AccessLog.reconcile` needs of a run of per-fetch entries,
    held or retired."""

    urls: int = 0
    records: int = 0
    ok: int = 0
    attempts: int = 0
    transient_failures: int = 0
    not_found: int = 0

    @classmethod
    def of(cls, urls: int, records: Sequence[FetchRecord]) -> "_Tally":
        return cls(
            urls,
            len(records),
            sum(r.ok for r in records),
            sum(r.attempts for r in records),
            sum(r.transient_failures for r in records),
            sum(r.error == "not_found" for r in records),
        )

    def plus(self, other: "_Tally") -> "_Tally":
        return _Tally(*map(add, self, other))


@dataclass
class AccessLog:
    """Counts of network interactions performed through a client.

    ``cache_hits`` counts accesses served from the page cache without any
    connection (including downloads shared through single-flight dedup);
    ``revalidations`` counts cached pages served after a light-connection
    date check confirmed freshness (the HEAD itself also shows up in
    ``light_connections``); ``pages_saved`` is their sum — full downloads
    the cache avoided.  ``pages_shared`` counts pages this query received
    pre-fetched from the multi-query server's plan-level prefix sharing
    (:mod:`repro.server`): someone else's download, injected into this
    query's session before it ran, so it appears in no fetch record here
    — the provider's own log carries the download.

    The counters are exact for the life of the log.  ``downloaded_urls`` and
    ``records`` reach back to the oldest :class:`LogMark` still alive: taking
    a mark folds the entries no live mark can ask for into a running
    :class:`_Tally`, so :meth:`reconcile` stays exact, every :meth:`delta` is
    complete, and a long-lived client holds one query's entries, not its
    history.  A log nobody takes marks of keeps everything."""

    page_downloads: int = 0
    light_connections: int = 0
    failed_requests: int = 0
    bytes_downloaded: int = 0
    simulated_seconds: float = 0.0
    attempts: int = 0
    cache_hits: int = 0
    revalidations: int = 0
    pages_saved: int = 0
    pages_shared: int = 0
    downloaded_urls: list = field(default_factory=list)
    records: list = field(default_factory=list)
    _retired: _Tally = field(default=_Tally(), repr=False, compare=False)
    #: weak references to the marks taken, oldest first
    _marks: deque = field(default_factory=deque, repr=False, compare=False)
    #: marks may be taken from any thread while one thread accounts fetches:
    #: every accounting step that moves a list with its counters (or two
    #: counters one invariant ties together) holds this, and so does every
    #: read of more than one of them (snapshot / delta / reconcile)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def snapshot(self) -> "LogMark":
        """A frozen O(1) mark of the current counters, to hand to
        :meth:`delta` later; retires the entries older than every live mark."""
        with self._lock:
            mark = LogMark(
                page_downloads=self.page_downloads,
                light_connections=self.light_connections,
                failed_requests=self.failed_requests,
                bytes_downloaded=self.bytes_downloaded,
                simulated_seconds=self.simulated_seconds,
                attempts=self.attempts,
                cache_hits=self.cache_hits,
                revalidations=self.revalidations,
                pages_saved=self.pages_saved,
                pages_shared=self.pages_shared,
                urls=self._retired.urls + len(self.downloaded_urls),
                records=self._retired.records + len(self.records),
            )
            self._marks.append(weakref.ref(mark))
            while (oldest := self._marks[0]()) is None:
                self._marks.popleft()
            urls = oldest.urls - self._retired.urls
            records = oldest.records - self._retired.records
            self._retired = self._retired.plus(_Tally.of(urls, self.records[:records]))
            del self.downloaded_urls[:urls], self.records[:records]
        return mark

    def delta(self, earlier: "LogMark") -> "AccessLog":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        with self._lock:  # counters and lists read at one instant
            return AccessLog(
                page_downloads=self.page_downloads - earlier.page_downloads,
                light_connections=self.light_connections
                - earlier.light_connections,
                failed_requests=self.failed_requests - earlier.failed_requests,
                bytes_downloaded=self.bytes_downloaded - earlier.bytes_downloaded,
                simulated_seconds=self.simulated_seconds
                - earlier.simulated_seconds,
                attempts=self.attempts - earlier.attempts,
                cache_hits=self.cache_hits - earlier.cache_hits,
                revalidations=self.revalidations - earlier.revalidations,
                pages_saved=self.pages_saved - earlier.pages_saved,
                pages_shared=self.pages_shared - earlier.pages_shared,
                downloaded_urls=self.downloaded_urls[
                    earlier.urls - self._retired.urls :
                ],
                records=self.records[earlier.records - self._retired.records :],
            )

    def merge(self, other: "AccessLog") -> "AccessLog":
        """Sum of two logs (counters added, URL lists and fetch records
        concatenated, ours first).  Used to combine the multi-query
        server's shared-navigator accounting with a query's own log so
        conformance laws can be checked against the combined network
        footprint; ``pages_shared`` is deliberately *not* summed into any
        other counter — it marks the hand-off between the two logs."""
        return AccessLog(
            page_downloads=self.page_downloads + other.page_downloads,
            light_connections=self.light_connections + other.light_connections,
            failed_requests=self.failed_requests + other.failed_requests,
            bytes_downloaded=self.bytes_downloaded + other.bytes_downloaded,
            simulated_seconds=self.simulated_seconds + other.simulated_seconds,
            attempts=self.attempts + other.attempts,
            cache_hits=self.cache_hits + other.cache_hits,
            revalidations=self.revalidations + other.revalidations,
            pages_saved=self.pages_saved + other.pages_saved,
            pages_shared=self.pages_shared + other.pages_shared,
            downloaded_urls=list(self.downloaded_urls) + list(other.downloaded_urls),
            records=list(self.records) + list(other.records),
        )

    def reset(self) -> None:
        with self._lock:
            self.page_downloads = 0
            self.light_connections = 0
            self.failed_requests = 0
            self.bytes_downloaded = 0
            self.simulated_seconds = 0.0
            self.attempts = 0
            self.cache_hits = 0
            self.revalidations = 0
            self.pages_saved = 0
            self.pages_shared = 0
            self.downloaded_urls = []
            self.records = []
            self._retired = _Tally()
            self._marks.clear()

    @property
    def cost(self) -> CostSummary:
        return CostSummary.from_log(self)

    def reconcile(self) -> list[str]:
        """Cross-check the aggregate counters against the per-fetch records
        (those still held plus the tally of those retired).

        Returns a list of human-readable inconsistencies (empty when the
        log is internally consistent).  The invariants — relied on by the
        QA conformance oracle (:mod:`repro.qa`) — are:

        * ``pages_saved == cache_hits + revalidations``;
        * ``page_downloads == len(downloaded_urls) == #ok records``;
        * ``attempts == Σ record attempts + light_connections`` (every
          HEAD is one attempt; cache hits cost none);
        * ``failed_requests == Σ record transient_failures +
          #not_found records``;
        * ``revalidations <= light_connections`` (each revalidation went
          through exactly one HEAD).
        """
        problems: list[str] = []

        def check(condition: bool, message: str) -> None:
            if not condition:
                problems.append(message)

        with self._lock:  # one instant for counters, lists and tally
            check(
                self.pages_saved == self.cache_hits + self.revalidations,
                f"pages_saved={self.pages_saved} != cache_hits={self.cache_hits}"
                f" + revalidations={self.revalidations}",
            )
            fetched = self._retired.plus(
                _Tally.of(len(self.downloaded_urls), self.records)
            )
            check(
                self.page_downloads == fetched.urls,
                f"page_downloads={self.page_downloads} != "
                f"len(downloaded_urls)={fetched.urls}",
            )
            check(
                self.page_downloads == fetched.ok,
                f"page_downloads={self.page_downloads} != "
                f"ok records={fetched.ok}",
            )
            check(
                self.attempts == fetched.attempts + self.light_connections,
                f"attempts={self.attempts} != record attempts="
                f"{fetched.attempts} + light_connections={self.light_connections}",
            )
            check(
                self.failed_requests == fetched.transient_failures + fetched.not_found,
                f"failed_requests={self.failed_requests} != transient="
                f"{fetched.transient_failures} + not_found={fetched.not_found}",
            )
            check(
                self.revalidations <= self.light_connections,
                f"revalidations={self.revalidations} > "
                f"light_connections={self.light_connections}",
            )
        return problems

    def __repr__(self) -> str:
        return (
            f"AccessLog(downloads={self.page_downloads}, "
            f"light={self.light_connections}, failed={self.failed_requests}, "
            f"bytes={self.bytes_downloaded})"
        )


@dataclass
class _FetchOutcome:
    """Result of fetching one URL with retries (pure; no log mutation).

    ``shared`` marks an outcome obtained from another lane's in-flight
    download through single-flight dedup: the resource is real, but this
    caller pays nothing (zero pages, zero time — the leader's accounting
    already covers the network work)."""

    url: str
    resource: Optional[WebResource] = None
    seconds: float = 0.0
    attempts: int = 0
    transient_failures: int = 0
    error: Optional[Exception] = None
    shared: bool = False


#: the members bound once: reading one off its class costs ~0.2 µs, and a
#: warm batch compares them once per cached URL
_OFF, _PER_QUERY = CachePolicy.OFF, CachePolicy.PER_QUERY
_FRESH = Freshness.FRESH

#: the fetch counters, folded per batch: name → help
_FETCH_COUNTERS = {
    "repro_fetch_total": "page fetches by outcome and page scheme",
    "repro_single_flight_dedup_total": (
        "downloads shared with another in-flight fetch"
    ),
    "repro_fetch_bytes_total": "page bytes downloaded",
    "repro_fetch_transient_faults_total": (
        "injected transient faults absorbed by retries"
    ),
    "repro_fetch_retries_total": "retry attempts beyond the first",
}


class WebClient:
    """GET/HEAD access to a :class:`SimulatedWebServer`, with accounting.

    ``network`` translates accesses into simulated wall time (defaults to
    the 1998-flavoured model); purely informational — the optimizer's cost
    function counts pages, as in the paper.  ``retry_policy`` governs how
    transient failures are retried (it only matters when the server carries
    a :class:`~repro.web.server.FaultPolicy`).  ``cache`` attaches a
    :class:`~repro.web.cache.PageCache` consulted (and filled) by ``get``
    and ``get_batch``; without one — or with policy ``off`` — the client
    behaves bit-for-bit like the uncached engine."""

    def __init__(
        self,
        server: SimulatedWebServer,
        network: Optional[NetworkModel] = None,
        retry_policy: Optional[RetryPolicy] = None,
        cache: Optional[PageCache] = None,
    ):
        self.server = server
        self.network = network or MODEM_1998
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.cache = cache
        self.log = AccessLog()
        self._single_flight = SingleFlight()
        #: Observability hook (:mod:`repro.obs.trace`): the executor swaps
        #: in a RecordingTracer for traced runs.  Instrumentation guards on
        #: ``tracer.enabled`` and never mutates the log, the cache, or the
        #: server — tracing on/off cannot change what a query observes.
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------ #
    # single-URL API
    # ------------------------------------------------------------------ #

    def get(
        self,
        url: str,
        retry: Optional[RetryPolicy] = None,
        cache: Optional[PageCache] = None,
    ) -> WebResource:
        """Download a page (one network access, retried on transient
        faults) — unless the page cache can serve it for zero pages (hit)
        or one light connection (cross-query revalidation).  Raises
        ResourceNotFound for missing pages and RetriesExhaustedError when
        the retry budget runs out — in both cases after counting the
        failed request.  ``cache`` overrides the client's attached cache
        for this call (pass :data:`~repro.web.cache.NO_CACHE` to bypass)."""
        cache = cache if cache is not None else self.cache
        served, misses = self._serve_batch((url,), cache)
        if not misses:
            return served[url]
        outcome = self._fetch_shared(url, retry or self.retry_policy)
        self._account([outcome], 1, cache)
        if outcome.error is not None:
            raise outcome.error
        assert outcome.resource is not None
        return outcome.resource

    def head(self, url: str) -> HeadResponse:
        """Open a light connection: returns error flag + modification date
        without downloading the page (paper, Section 8).  Never raises —
        a missing page is reported through ``ok=False``.  Charged, like
        every HEAD, through :meth:`_charge_heads`."""
        self._charge_heads((url,))
        return self._head_response(url)

    def head_batch(
        self, urls: Sequence[str], workers: Optional[int] = None
    ) -> dict[str, HeadResponse]:
        """Open many light connections as one ``k``-lane batch.

        The batch is charged through :meth:`_charge_heads` like any other
        HEAD, so counts (``light_connections``, ``attempts``) are
        identical at every pool size.  Only simulated wall time changes:
        with ``workers > 1`` the per-HEAD round trips are placed on a
        greedy :class:`~repro.clock.Timeline` of ``workers`` lanes and the
        batch is charged its makespan, exactly like :meth:`get_batch` —
        this is what lets a sharded-store refresh overlap its revalidation
        traffic the way query fetch batches already do.  ``workers=None``
        follows the network model's ``parallel_connections``; duplicates
        are checked once; with one lane the accounting is bit-for-bit
        that many single :meth:`head` calls.
        """
        distinct = list(dict.fromkeys(urls))
        if not distinct:
            return {}
        if workers is None:
            workers = self.network.parallel_connections
        lanes = max(1, min(workers, len(distinct)))
        with self.tracer.span(
            "head_batch", kind="fetch", urls=len(distinct), workers=lanes
        ):
            responses = {url: self._head_response(url) for url in distinct}
            makespan = None
            if lanes > 1:
                timeline = Timeline(lanes)
                for _ in distinct:
                    timeline.add(self.network.head_seconds())
                makespan = timeline.makespan
            self._charge_heads(distinct, makespan)
        METRICS.counter(
            "repro_head_batches_total", "light-connection batches by pool size"
        ).inc(workers=lanes)
        return responses

    def revalidate(
        self, urls: Sequence[str], known_dates: Sequence[int]
    ) -> list[Freshness]:
        """Function 2's light connections over a run of stored pages: HEAD
        ``urls`` in order, compare each against its ``known_dates`` entry,
        and stop after the first answer that is not ``FRESH`` — that page
        must be fetched or dropped before a later one is looked at.
        Returns one answer per HEAD made and charges exactly those, in one
        :meth:`_charge_heads` call.  The materialized store's URLCheck and
        the page cache's revalidation (:meth:`get_batch`) both call it, a
        run at a time, resuming after each answer that was not fresh."""
        last_modified, fresh = self.server.last_modified, _FRESH
        answers: list[Freshness] = []
        for url, known in zip(urls, known_dates):
            answer = freshness_of(known, last_modified(url))
            answers.append(answer)
            if answer is not fresh:
                break
        self._charge_heads(urls[: len(answers)])
        return answers

    # ------------------------------------------------------------------ #
    # batch API
    # ------------------------------------------------------------------ #

    def get_batch(
        self,
        urls: Sequence[str],
        config: Optional[FetchConfig] = None,
        retry: Optional[RetryPolicy] = None,
        cache: Optional[PageCache] = None,
        schedule: Optional[BatchSchedule] = None,
    ) -> dict[str, Optional[WebResource]]:
        """Download many pages as one batch through a bounded worker pool.

        Duplicate URLs are fetched once (and concurrent batches issued by
        other threads share in-flight downloads through single-flight
        dedup).  Returns ``url → resource`` with ``None`` for missing pages
        (dangling links are tolerated, as in the single-URL path).  If any
        fetch exhausts its retry budget the first such
        RetriesExhaustedError is raised — after the whole batch has been
        accounted, so partial work still shows up in the log.

        When a page cache is active, cached URLs are resolved *first*, on
        the calling thread in submission order — hits for free,
        cross-query entries for one light connection each, opened in
        :meth:`revalidate` runs — and only the misses go to the worker
        pool.  Accounting is deterministic regardless of thread
        interleaving: the pool only performs the fetches; counters,
        ``downloaded_urls`` order and per-fetch records follow submission
        order, and simulated wall time is the greedy ``k``-lane makespan
        of the per-fetch durations.  With one worker this degenerates to
        the exact serial accumulation.  The cache's outcomes take one
        log-lock round trip per batch and the GETs one more.

        ``schedule`` (a :class:`~repro.clock.BatchSchedule`) switches the
        batch from the private per-batch timeline to a *shared* one: each
        fetch is placed on the shared ``k``-lane schedule no earlier than
        ``schedule.ready``, nothing is added to ``log.simulated_seconds``
        (the pipelined executor charges the shared makespan once at query
        end), and ``schedule.completed`` receives the batch's completion
        time.  Page accounting — counts, records, cache interaction — is
        byte-identical to the unscheduled path; only the time placement
        changes.
        """
        config = config or DEFAULT_FETCH_CONFIG
        retry = retry or self.retry_policy
        cache = cache if cache is not None else self.cache
        distinct = list(dict.fromkeys(urls))
        if not distinct:
            return {}
        with self.tracer.span(
            "fetch_batch", kind="fetch", urls=len(distinct)
        ) as span:
            served, to_fetch = self._serve_batch(distinct, cache)
            result: dict[str, Optional[WebResource]] = dict(served)
            if schedule is not None:
                schedule.completed = max(schedule.completed, schedule.ready)
            if not to_fetch:
                span.set(from_cache=len(result), fetched=0)
                return result
            workers = max(
                1, min(config.effective_workers(self.network), len(to_fetch))
            )
            batch_t0 = self.log.simulated_seconds
            if workers == 1:
                outcomes = [self._fetch_shared(u, retry) for u in to_fetch]
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    outcomes = list(
                        pool.map(lambda u: self._fetch_shared(u, retry), to_fetch)
                    )
            if schedule is not None:
                completed = schedule.ready
                placements = []
                for outcome in outcomes:
                    end = schedule.timeline.add(
                        outcome.seconds, ready=schedule.ready
                    )
                    lane, start, _ = schedule.timeline.intervals[-1]
                    completed = max(completed, end)
                    placements.append(
                        (lane, schedule.base + start, schedule.base + end)
                    )
                schedule.completed = max(schedule.completed, completed)
                self._account(
                    outcomes, schedule.timeline.lanes, cache, placements, 0.0
                )
            elif workers == 1:
                self._account(outcomes, 1, cache)
            else:
                timeline = Timeline(workers)
                placements = []
                for outcome in outcomes:
                    end = timeline.add(outcome.seconds)
                    lane, start, _ = timeline.intervals[-1]
                    placements.append((lane, batch_t0 + start, batch_t0 + end))
                self._account(
                    outcomes, workers, cache, placements, timeline.makespan
                )
            METRICS.counter(
                "repro_fetch_batches_total", "fetch batches by pool size"
            ).inc(workers=workers)
            if schedule is not None:
                t0 = schedule.base + schedule.ready
                seconds = schedule.completed - schedule.ready
            else:
                t0, seconds = batch_t0, self.log.simulated_seconds - batch_t0
            span.set(
                from_cache=len(result),
                fetched=len(to_fetch),
                workers=workers,
                t0=t0,
                batch_seconds=seconds,
            )
            result.update((outcome.url, outcome.resource) for outcome in outcomes)
            for outcome in outcomes:
                if isinstance(outcome.error, RetriesExhaustedError):
                    raise outcome.error
            return result

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _charge_heads(
        self, urls: Sequence[str], makespan: Optional[float] = None
    ) -> None:
        """The single accounting point for light connections (HEADs): one
        log-lock round trip for all of ``urls``.  Each HEAD adds one round
        trip of simulated time, one addition at a time, so a run is
        charged bit-for-bit what as many single HEADs would be; a
        ``k``-lane batch passes its ``makespan`` instead."""
        count = len(urls)
        if not count:
            return
        log = self.log
        with log._lock:
            log.light_connections += count
            log.attempts += count
            if makespan is None:
                rtt = self.network.head_seconds()
                seconds = log.simulated_seconds
                for _ in urls:
                    seconds += rtt
                log.simulated_seconds = seconds
            else:
                log.simulated_seconds += makespan
        METRICS.counter(
            "repro_light_connections_total", "HEAD requests issued"
        ).inc(count)
        if self.tracer.enabled:
            for url in urls:
                self.tracer.event("head", url=url)

    def _head_response(self, url: str) -> HeadResponse:
        modified = self.server.last_modified(url)
        if modified is None:
            return HeadResponse(url=url, ok=False, last_modified=0)
        return HeadResponse(url=url, ok=True, last_modified=modified)

    def _serve_batch(
        self, urls: Sequence[str], cache: Optional[PageCache]
    ) -> tuple[dict[str, WebResource], list[str]]:
        """Resolve the distinct ``urls`` against ``cache``: a snapshot of
        each page it serves, and the URLs that must go to the network (no
        cache, no entry, the page changed or vanished), in submission order.
        One bulk read finds every entry and trust flag; untrusted entries
        go to :meth:`revalidate` in runs, each stopping at a STALE or
        MISSING answer (that URL is invalidated and missed, the next run
        starts after it), so the HEADs are one per URL, in order.  The
        trust set, the cache statistics, the log (``pages_saved ==
        cache_hits + revalidations`` at every instant) and the metrics
        registry are then settled once each.  Traced, a run is one URL, so
        each ``head`` event precedes its URL's cache event."""
        if cache is None or cache.policy is _OFF:
            return {}, list(urls)
        looked = cache.lookup_batch(urls)
        trust_all = cache.policy is _PER_QUERY
        checks = [
            i
            for i, (entry, trusted) in enumerate(looked)
            if entry is not None and not (trust_all or trusted)
        ]
        tracer = self.tracer
        limit = 1 if tracer.enabled else len(checks)
        answers: dict[int, Freshness] = {}  # a prefix of ``checks``
        served: dict[str, WebResource] = {}
        misses: list[str] = []
        fresh: list[str] = []
        events: dict[tuple[str, str], int] = {}
        hits = 0
        for i, (url, (entry, trusted)) in enumerate(zip(urls, looked)):
            if entry is None:
                event, scheme = "miss", ""
                misses.append(url)
            elif trust_all or trusted:  # zero connections, zero pages
                event, scheme = "hit", entry.page_scheme
                hits += 1
                served[url] = entry.as_resource()
            else:
                if i not in answers:  # the next run starts here
                    run = checks[len(answers) : len(answers) + limit]
                    dates = [looked[j][0].last_modified for j in run]
                    heads = self.revalidate([urls[j] for j in run], dates)
                    answers.update(zip(run, heads))
                scheme = entry.page_scheme
                if answers[i] is _FRESH:
                    event = "revalidation"
                    fresh.append(url)
                    served[url] = entry.as_resource()
                else:  # stale or vanished: re-fetch (or fail) live
                    event = "stale"
                    cache.invalidate(url)
                    misses.append(url)
            events[event, scheme] = events.get((event, scheme), 0) + 1
            if tracer.enabled:
                tracer.event(f"cache_{event}", url=url, scheme=scheme)
        if fresh:
            cache.mark_validated(*fresh)
        cache.note(hits, len(fresh), len(misses))
        if hits or fresh:
            log = self.log
            with log._lock:
                log.cache_hits += hits
                log.revalidations += len(fresh)
                log.pages_saved += hits + len(fresh)
        counter = METRICS.counter(
            "repro_cache_events_total",
            "page-cache lookup outcomes by event, policy, and page scheme",
        )
        for (event, scheme), count in events.items():
            counter.inc(count, event=event, policy=cache.policy.value, scheme=scheme)
        return served, misses

    def _fetch_shared(self, url: str, retry: RetryPolicy) -> _FetchOutcome:
        """Fetch through the single-flight group: if another thread is
        already downloading ``url``, wait for its result instead of issuing
        a second request; the follower's outcome is marked ``shared`` so it
        is charged zero pages and zero time."""
        outcome, leader = self._single_flight.do(
            url, lambda: self._fetch_with_retries(url, retry)
        )
        if leader:
            return outcome
        return _FetchOutcome(
            url, outcome.resource, error=outcome.error, shared=True
        )

    def _fetch_with_retries(
        self, url: str, retry: RetryPolicy
    ) -> _FetchOutcome:
        """Fetch one URL, retrying transient faults.  Pure with respect to
        the log (safe to run on a pool worker); accounting happens later in
        :meth:`_account` on the calling thread."""
        outcome = _FetchOutcome(url)
        last: Optional[Exception] = None
        for attempt in range(1, retry.max_attempts + 1):
            outcome.attempts = attempt
            outcome.seconds += retry.backoff_before(attempt)
            try:
                resource = self.server.serve(url)
            except ResourceNotFound as err:
                outcome.error = err  # permanent: no retry, no time charged
                return outcome
            except TransientFetchError as err:
                last = err
                outcome.transient_failures += 1
                outcome.seconds += self.network.head_seconds()  # wasted RTT
                continue
            outcome.resource = resource
            outcome.seconds += self.network.get_seconds(len(resource.html))
            return outcome
        outcome.error = RetriesExhaustedError(url, outcome.attempts, last)
        return outcome

    def _account(
        self,
        outcomes: Sequence[_FetchOutcome],
        concurrency: int,
        cache: Optional[PageCache],
        placements: Optional[Sequence[tuple[int, float, float]]] = None,
        makespan: Optional[float] = None,
    ) -> None:
        """Account a batch's fetch outcomes in submission order: one
        log-lock round trip, the cache stores one fetch at a time, one
        metrics increment per ``(page scheme, outcome)`` and a trace event
        per fetch.  Each fetch's seconds are added in turn (one lane)
        unless a ``k``-lane batch passes its ``makespan`` (0.0 on a shared
        schedule, which its query charges).  ``placements``: each fetch's
        ``(lane, start, end)`` on the simulated schedule, for the trace's
        batch timeline; None is one lane from now."""
        log, tracer = self.log, self.tracer
        records: list[FetchRecord] = []
        downloaded: list[str] = []
        tally: dict[tuple[str, str, str], int] = {}  # (metric, scheme, outcome)
        seconds: dict[str, list[float]] = {}  # scheme → each fetch's seconds
        shared = attempts = failed = size = 0
        t0, offset = log.simulated_seconds, 0.0  # one lane from now
        for index, outcome in enumerate(outcomes):
            resource = outcome.resource
            scheme = resource.page_scheme if resource is not None else ""
            folds = []
            if outcome.shared:
                # single-flight follower: the leader paid for the download
                if resource is not None:
                    shared += 1
                status = "shared"
                folds.append(("repro_single_flight_dedup_total", "", 1))
            else:
                status = "ok"
                if isinstance(outcome.error, ResourceNotFound):
                    status = "not_found"
                    failed += 1
                elif isinstance(outcome.error, RetriesExhaustedError):
                    status = "exhausted"
                records.append(FetchRecord(
                    url=outcome.url,
                    seconds=outcome.seconds,
                    attempts=outcome.attempts,
                    concurrency=concurrency,
                    ok=resource is not None,
                    transient_failures=outcome.transient_failures,
                    error="" if status == "ok" else status,
                ))
                attempts += outcome.attempts
                failed += outcome.transient_failures
                if resource is not None:
                    downloaded.append(outcome.url)
                    size += len(resource.html)
                    folds.append(("repro_fetch_bytes_total", "", len(resource.html)))
                if outcome.transient_failures:
                    folds.append((
                        "repro_fetch_transient_faults_total",
                        "",
                        outcome.transient_failures,
                    ))
                if outcome.attempts > 1:
                    folds.append(
                        ("repro_fetch_retries_total", "", outcome.attempts - 1)
                    )
                seconds.setdefault(scheme, []).append(outcome.seconds)
            folds.append(("repro_fetch_total", status, 1))
            for name, label, amount in folds:
                key = (name, scheme, label)
                tally[key] = tally.get(key, 0) + amount
            if tracer.enabled:
                if placements is None:
                    lane, begin = 0, t0 + offset
                    end = t0 + offset + outcome.seconds
                    offset += outcome.seconds
                else:
                    lane, begin, end = placements[index]
                tracer.event(
                    "fetch",
                    url=outcome.url,
                    scheme=scheme,
                    outcome=status,
                    seconds=outcome.seconds,
                    attempts=outcome.attempts,
                    transient_failures=outcome.transient_failures,
                    shared=outcome.shared,
                    concurrency=concurrency,
                    lane=lane,
                    start=begin,
                    end=end,
                )
        with log._lock:  # the batch's counters and list entries move together
            log.attempts += attempts
            log.failed_requests += failed
            log.page_downloads += len(downloaded)
            log.bytes_downloaded += size
            log.downloaded_urls.extend(downloaded)
            log.records.extend(records)
            log.cache_hits += shared
            log.pages_saved += shared
            if makespan is None:
                total = log.simulated_seconds
                for record in records:
                    total += record.seconds
                log.simulated_seconds = total
            else:
                log.simulated_seconds += makespan
        if downloaded and cache is not None and cache.policy is not _OFF:
            for outcome in outcomes:
                if outcome.resource is not None and not outcome.shared:
                    # the caller gets the entry's snapshot, not the live
                    # server object, so the tuple it wraps lands on the entry
                    outcome.resource = cache.store(outcome.resource).as_resource()
                    cache.mark_validated(outcome.url)
        for (name, scheme, label), amount in tally.items():
            counter = METRICS.counter(name, _FETCH_COUNTERS[name])
            if label:
                counter.inc(amount, scheme=scheme, outcome=label)
            else:
                counter.inc(amount, scheme=scheme)
        if seconds:
            histogram = METRICS.histogram(
                "repro_fetch_seconds", "simulated seconds per fetch"
            )
            for scheme, values in seconds.items():
                histogram.observe_each(values, scheme=scheme)

    def __repr__(self) -> str:
        return f"WebClient({self.log!r})"
