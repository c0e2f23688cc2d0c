"""The multi-query server: admission, fair scheduling, shared work.

:class:`QueryServer` drives a :class:`~repro.sites.SiteEnv` with a pool of
worker threads, turning the single-query library into a concurrent query
service:

* **Bounded admission** — :meth:`QueryServer.submit` refuses work beyond
  ``ServerConfig.max_queue`` pending requests
  (:class:`~repro.errors.AdmissionRejected`), so a burst degrades into
  fast rejections instead of unbounded queue growth.
* **Per-tenant fairness** — pending requests queue per tenant; workers
  dequeue round-robin across tenants in first-submission order, so one
  chatty tenant cannot starve the rest (with one worker the service order
  is exactly the round-robin interleaving — the conformance tests pin
  this).
* **Plan-level shared work** — each planned query is decomposed into
  navigation prefixes (:func:`~repro.server.prefix.navigation_prefixes`);
  the shared :class:`~repro.server.prefix.SharedNavigator` evaluates each
  distinct prefix once and the page batch is fanned out to every
  subscribed query via session seeding, which records the hand-off in the
  per-query ``pages_shared`` counter.  Adaptive requests run unshared
  (:data:`_SHARING_MODES`).

Every request runs one core, :func:`_subscribe` then :func:`_execute`
(:func:`execute_shared` runs it single-threaded): the query executes on
its **own** client clone (shared simulated server and network model,
private :class:`~repro.web.client.AccessLog`), so per-query accounting is
exact under concurrency and, because injected prefix pages remove those
URLs from the query's own fetch set, fully deterministic: a query's log
depends only on which prefix pages it was handed, never on thread
interleaving.

:meth:`QueryServer.serve` runs a *cohort*: plan every request first,
pre-resolve all distinct prefixes serially (in first-appearance order),
then dispatch the queries over the pool.  Every sharing query is then a
follower, which makes the whole cohort's accounting — navigator log
included — bit-for-bit reproducible; the benchmark regression gate relies
on this.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.algebra.ast import Expr
from repro.engine.remote import ExecutionResult, RemoteExecutor
from repro.errors import AdmissionRejected, OptionsError
from repro.obs.journal import Journal
from repro.obs.metrics import METRICS
from repro.obs.progress import ProgressBoard, QueryProgress
from repro.obs.trace import NULL_TRACER
from repro.options import DEFAULT_OPTIONS, QueryOptions, QueryRequest
from repro.materialized.advisor import AdvisorReport, WorkloadQuery, advise
from repro.materialized.store import MaterializedStore
from repro.server.prefix import (
    PrefixSignature,
    SharedNavigator,
    navigation_prefixes,
)
from repro.sites import SiteEnv
from repro.web.client import AccessLog, WebClient
from repro.web.resources import WebResource

__all__ = [
    "ServerConfig",
    "QueryOutcome",
    "Ticket",
    "ServerStatus",
    "QueryServer",
    "execute_shared",
    "SharedExecution",
    "WarmupReport",
]


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for one :class:`QueryServer`.

    ``max_workers`` bounds concurrent query execution; ``max_queue``
    bounds *pending* (admitted, not yet started) requests; a submit
    beyond it raises :class:`~repro.errors.AdmissionRejected`.  Both are
    positive ints.  ``default_options`` applies to requests that carry
    none; its ``execution`` decides, like any request's, whether the
    request shares navigation prefixes (module docstring).
    ``journal`` attaches a server-wide event journal: every request that
    does not bring its own journal records its correlated event block
    (request / plan / spans / result) there, stamped with the request's
    server-allocated ``request_id``."""

    max_workers: int = 4
    max_queue: int = 64
    default_options: QueryOptions = DEFAULT_OPTIONS
    journal: Optional[Journal] = None

    def __post_init__(self) -> None:
        for name in ("max_workers", "max_queue"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise OptionsError(f"{name} must be a positive int, got {value!r}")
        if not isinstance(self.default_options, QueryOptions):
            raise OptionsError(
                f"default_options must be a QueryOptions, "
                f"got {self.default_options!r}"
            )
        if self.journal is not None and not isinstance(self.journal, Journal):
            raise OptionsError(
                f"journal must be a repro.obs.journal.Journal or None, "
                f"got {self.journal!r}"
            )


@dataclass(frozen=True)
class WarmupReport:
    """What one :meth:`QueryServer.warm_up` decided and did."""

    #: the advisor's decision (chosen schemes, candidates, estimates)
    advisor: AdvisorReport
    #: chosen-scheme pages now resident in the cross-query cache
    warmed_pages: int
    #: unchosen pages fetched only to traverse their links (not cached)
    transit_pages: int
    light_connections: int
    seconds: float

    def __repr__(self) -> str:
        return (
            f"WarmupReport({self.warmed_pages} warmed over "
            f"{sorted(self.advisor.chosen)}, {self.transit_pages} transit, "
            f"{self.seconds:.2f}s)"
        )


@dataclass
class QueryOutcome:
    """Everything the server knows about one finished request.

    ``sequence`` is the dequeue order (global, 0-based) — the observable
    trace of the fair scheduler.  ``signatures`` lists the navigation
    prefixes this query subscribed to (empty: an adaptive request, no
    pure prefix, or navigator fault fallback).  ``pages_shared`` is the
    number of live pages the navigator handed this query for free; the
    attribution law ``own pages + pages_shared == solo pages`` holds for
    cache-cold runs.  ``queued_seconds`` is real wall-clock queue time
    (observational only — simulated time lives in the logs)."""

    request: QueryRequest
    tenant: str
    sequence: int
    result: Optional[ExecutionResult] = None
    error: Optional[BaseException] = None
    signatures: tuple[PrefixSignature, ...] = ()
    queued_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def pages_shared(self) -> int:
        return self.result.log.pages_shared if self.result else 0


class Ticket:
    """Claim check for a submitted request; resolves to a
    :class:`QueryOutcome` when a worker finishes it.

    ``request_id`` is the server-allocated correlation id (also the key
    of the request's block in the server journal); :meth:`progress` is a
    live, monotone view of the request's per-operator completion.  The
    board tracks a request only until it resolves: the ticket then keeps
    the final snapshot and the board forgets the request."""

    def __init__(
        self,
        request_id: str = "",
        board: Optional[ProgressBoard] = None,
    ) -> None:
        self.request_id = request_id
        self._board = board
        self._final: Optional[QueryProgress] = None
        self._done = threading.Event()
        self._outcome: Optional[QueryOutcome] = None

    def _resolve(self, outcome: QueryOutcome) -> None:
        if self._board is not None:
            # snapshot first, forget second: progress() trusts a board read
            # only while ``_final`` is still unset after it
            self._final = self._board.progress(self.request_id)
            self._board.forget(self.request_id)
        self._outcome = outcome
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def outcome(self, timeout: Optional[float] = None) -> QueryOutcome:
        """Block until the request finishes; the outcome, error included."""
        if not self._done.wait(timeout):
            raise TimeoutError("query is still pending")
        assert self._outcome is not None
        return self._outcome

    def result(self, timeout: Optional[float] = None) -> ExecutionResult:
        """Block until the request finishes; re-raises its error."""
        outcome = self.outcome(timeout)
        if outcome.error is not None:
            raise outcome.error
        assert outcome.result is not None
        return outcome.result

    def progress(self) -> QueryProgress:
        """Live completion snapshot for this request.

        The fraction is monotone non-decreasing over the request's
        lifetime and pins to 1.0 once the ticket resolves (error or not);
        before the worker picks the request up it reports 0.0."""
        if self._final is None and self._board is not None:
            snapshot = self._board.progress(self.request_id)
            if self._final is None:  # still unresolved: the read was live
                return snapshot
        return self._final or QueryProgress(
            request_id=self.request_id,
            total_operators=0,
            started_operators=0,
            completed_operators=0,
            est_tuples=0.0,
            actual_tuples=0.0,
            actual_pages=0.0,
            finished=self.done(),
        )


@dataclass
class _Task:
    request: QueryRequest
    options: QueryOptions
    tenant: str
    ticket: Ticket
    enqueued_at: float
    request_id: str = ""
    expr: Optional[Expr] = None  # pre-planned (cohort mode), else None
    sequence: int = -1
    #: simulated seconds of the prefix resolutions this request led
    #: (added to its makespan histogram entry)
    prefix_seconds: float = 0.0


@dataclass(frozen=True)
class ServerStatus:
    """A point-in-time operational snapshot of one :class:`QueryServer`:
    queue depth and per-tenant pending counts, per-tenant in-flight
    counts, total completions, and a per-request progress snapshot for
    every request a worker has picked up and not yet resolved (a resolved
    request's final snapshot lives on its :class:`Ticket`)."""

    open: bool
    queue_depth: int
    pending: dict[str, int]
    in_flight: dict[str, int]
    completed: int
    queries: dict[str, QueryProgress]


class QueryServer:
    """Concurrent query service over one :class:`~repro.sites.SiteEnv`.

    Use as a context manager, or call :meth:`close` when done::

        with QueryServer(env, ServerConfig(max_workers=4)) as server:
            tickets = [server.submit(req) for req in requests]
            answers = [t.result() for t in tickets]

    ``start=False`` defers worker startup until :meth:`start` (or the
    first :meth:`serve`) — the fairness tests use this to stage a backlog
    and observe the exact dequeue order."""

    def __init__(
        self,
        env: SiteEnv,
        config: Optional[ServerConfig] = None,
        *,
        start: bool = True,
    ):
        self.env = env
        self.config = config or ServerConfig()
        self.navigator = SharedNavigator(env.scheme, env.client, env.registry)
        self.progress = ProgressBoard()
        self._plan_lock = threading.Lock()
        self._cond = threading.Condition()
        self._queues: dict[str, deque[_Task]] = {}
        self._tenant_order: list[str] = []
        self._cursor = 0
        self._pending = 0
        self._sequence = 0
        self._request_ids = itertools.count(1)
        self._in_flight: dict[str, int] = {}
        self._completed = 0
        self._workers: list[threading.Thread] = []
        self._open = True
        if start:
            self.start()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "QueryServer":
        """Spawn the worker pool (idempotent)."""
        with self._cond:
            if not self._open:
                raise AdmissionRejected("server is closed")
            while len(self._workers) < self.config.max_workers:
                worker = threading.Thread(
                    target=self._worker,
                    name=f"repro-server-{len(self._workers)}",
                    daemon=True,
                )
                self._workers.append(worker)
                worker.start()
        return self

    def close(self, wait: bool = True) -> None:
        """Stop admitting; workers drain the backlog, then exit."""
        with self._cond:
            self._open = False
            self._cond.notify_all()
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit(self, request: QueryRequest) -> Ticket:
        """Admit one request (or refuse: bounded queue, closed server).

        Admission is counted in ``repro_server_admissions_total`` by
        tenant and outcome; the pending-queue depth at each admission
        lands in the ``repro_server_queue_depth`` histogram."""
        if not isinstance(request, QueryRequest):
            raise OptionsError(
                f"submit takes a QueryRequest, got {request!r}"
            )
        task = self._make_task(request)
        self._admit(task)
        return task.ticket

    def serve(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryOutcome]:
        """Run a cohort; outcomes in submission order.

        Deterministic sharing: every request is planned first (submission
        order), every distinct navigation prefix is resolved serially in
        first-appearance order, and only then is the cohort dispatched
        over the worker pool — each query finds its prefixes already
        resolved, so per-query accounting (and the navigator's own log)
        is independent of scheduling.  The cohort must fit the admission
        queue (``max_queue``), else :class:`~repro.errors.
        AdmissionRejected` before any work starts."""
        if len(requests) > self.config.max_queue:
            raise AdmissionRejected(
                f"cohort of {len(requests)} exceeds the admission queue "
                f"bound ({self.config.max_queue})"
            )
        tasks: list[_Task] = []
        for request in requests:
            task = self._make_task(request)
            task.expr = self._plan(request, task.options)
            tasks.append(task)
        for task in tasks:
            # best-effort: a prefix that fails here is led again by its query
            _, _, task.prefix_seconds = _subscribe(
                self.navigator, task.expr, task.options
            )
        self.start()
        for task in tasks:
            self._admit(task, bounded=False)
        return [task.ticket.outcome() for task in tasks]

    def warm_up(
        self,
        workload: Sequence[WorkloadQuery],
        *,
        mutation_rate: float,
        page_budget: Optional[int] = None,
        light_weight: Optional[float] = None,
        workers: int = 4,
    ) -> WarmupReport:
        """Advisor-driven warm-up of the environment's cross-query cache.

        Runs the materialization advisor over ``workload`` (requests with
        per-round frequencies, a sitegen mutation rate, and an optional
        page budget), then populates a partial store of the chosen
        page-schemes over a clone of the environment's client (private
        log) carrying the environment's cache, made if missing: the store
        keeps its pages there, so later queries find them warm — one light
        connection per page instead of a download (docs/MATERIALIZED.md).
        A second warm-up revalidates the pages the cache still holds.
        Call before :meth:`serve` / :meth:`submit`; no effect on answers."""
        env = self.env
        advice = advise(
            env, workload, mutation_rate=mutation_rate,
            page_budget=page_budget, light_weight=light_weight,
        )
        chosen = advice.materialize_set()
        cache = env.page_cache if env.page_cache is not None else env.enable_cache()
        base = env.client
        client = WebClient(base.server, base.network, base.retry_policy, cache)
        store = MaterializedStore(
            env.scheme, client, env.registry, retain_schemes=chosen
        )
        tracer = self.config.default_options.tracer or NULL_TRACER
        with tracer.span(
            "server_warmup", kind="maintenance", chosen=len(chosen), workers=workers
        ):
            warmed, transit = store._populate(workers)
        pages_total = METRICS.counter(
            "repro_server_warmup_pages_total", "warm-up pages by kind"
        )
        pages_total.inc(warmed, kind="warmed")
        pages_total.inc(transit, kind="transit")
        return WarmupReport(
            advisor=advice,
            warmed_pages=warmed,
            transit_pages=transit,
            light_connections=client.log.light_connections,
            seconds=client.log.simulated_seconds,
        )

    def status(self) -> ServerStatus:
        """Operational snapshot: queue depth, per-tenant pending and
        in-flight counts, completions, and the progress of every request
        being served (resolved ones have left the board).

        Observational and lock-consistent for the queue counters; the
        per-query progress snapshots are each individually consistent and
        monotone (see :meth:`Ticket.progress`)."""
        with self._cond:
            pending = {
                tenant: len(queue)
                for tenant, queue in self._queues.items()
                if queue
            }
            queue_depth = self._pending
            in_flight = {
                tenant: count
                for tenant, count in self._in_flight.items()
                if count > 0
            }
            completed = self._completed
            is_open = self._open
        return ServerStatus(
            open=is_open,
            queue_depth=queue_depth,
            pending=pending,
            in_flight=in_flight,
            completed=completed,
            queries=self.progress.snapshots(),
        )

    def _admit(self, task: _Task, bounded: bool = True) -> None:
        admissions = METRICS.counter(
            "repro_server_admissions_total",
            "submitted requests by tenant and admission outcome",
        )
        with self._cond:
            if not self._open:
                admissions.inc(tenant=task.tenant, outcome="closed")
                raise AdmissionRejected("server is closed")
            if bounded and self._pending >= self.config.max_queue:
                admissions.inc(tenant=task.tenant, outcome="rejected")
                raise AdmissionRejected(
                    f"admission queue is full "
                    f"({self._pending}/{self.config.max_queue} pending)"
                )
            queue = self._queues.get(task.tenant)
            if queue is None:
                queue = self._queues[task.tenant] = deque()
                self._tenant_order.append(task.tenant)
            queue.append(task)
            self._pending += 1
            admissions.inc(tenant=task.tenant, outcome="accepted")
            METRICS.histogram(
                "repro_server_queue_depth",
                "pending requests observed at each admission",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            ).observe(self._pending, tenant=task.tenant)
            self._cond.notify()

    def _options_for(self, request: QueryRequest) -> QueryOptions:
        options = request.options or self.config.default_options
        if self.config.journal is not None and options.journal is None:
            options = replace(options, journal=self.config.journal)
        with self._plan_lock:
            # resolve policy names against the environment cache exactly
            # once, on the submitting thread (enable_cache mutates env)
            return self.env.resolve_options(options)

    def _make_task(self, request: QueryRequest) -> _Task:
        """Resolve options, allocate the correlation id, open the journal
        block, and hand back the admitted-but-unqueued task."""
        options = self._options_for(request)
        request_id = f"req-{next(self._request_ids):04d}"
        journal = options.journal
        if journal is not None and journal.enabled:
            journal.begin_request(
                request_id,
                tenant=request.tenant,
                query=request.query if isinstance(request.query, str) else "",
            )
        return _Task(
            request,
            options,
            request.tenant,
            Ticket(request_id, self.progress),
            time.monotonic(),
            request_id=request_id,
        )

    def _plan(self, request: QueryRequest, options: QueryOptions) -> Expr:
        if request.plan is not None:
            return request.plan
        with self._plan_lock:
            # Planner.plan_query memoizes on shared mutable state
            return self.env.plan(request.query, cache=options.cache).best.expr

    # ------------------------------------------------------------------ #
    # the worker side
    # ------------------------------------------------------------------ #

    def _next_task_locked(self) -> Optional[_Task]:
        """Round-robin dequeue across tenants (caller holds the lock)."""
        if self._pending == 0:
            return None
        tenants = len(self._tenant_order)
        for step in range(tenants):
            index = (self._cursor + step) % tenants
            queue = self._queues[self._tenant_order[index]]
            if queue:
                self._cursor = (index + 1) % tenants
                task = queue.popleft()
                self._pending -= 1
                task.sequence = self._sequence
                self._sequence += 1
                return task
        return None

    def _worker(self) -> None:
        while True:
            with self._cond:
                task = self._next_task_locked()
                while task is None:
                    if not self._open:
                        return
                    self._cond.wait()
                    task = self._next_task_locked()
                queued = time.monotonic() - task.enqueued_at
                self._in_flight[task.tenant] = (
                    self._in_flight.get(task.tenant, 0) + 1
                )
            try:
                outcome = self._run(task, queued)
            finally:
                with self._cond:
                    self._in_flight[task.tenant] -= 1
                    self._completed += 1
            task.ticket._resolve(outcome)

    def _run(self, task: _Task, queued: float) -> QueryOutcome:
        outcome = QueryOutcome(
            request=task.request,
            tenant=task.tenant,
            sequence=task.sequence,
            queued_seconds=queued,
        )
        METRICS.histogram(
            "repro_server_queue_seconds",
            "wall-clock seconds from admission to dequeue",
        ).observe(queued, tenant=task.tenant)
        try:
            expr = task.expr
            if expr is None:
                expr = self._plan(task.request, task.options)
            shared, outcome.signatures, seconds = _subscribe(
                self.navigator, expr, task.options
            )
            task.prefix_seconds += seconds
            tracer = (
                task.options.tracer
                if task.options.tracer is not None
                else NULL_TRACER
            )
            with tracer.span(
                "server_request",
                kind="server",
                tenant=task.tenant,
                sequence=task.sequence,
                prefixes=len(outcome.signatures),
            ):
                outcome.result = _execute(
                    self.env,
                    expr,
                    task.options,
                    shared,
                    request_id=task.request_id,
                    board=self.progress,
                )
        except Exception as err:  # surfaced through the ticket
            outcome.error = err
            journal = task.options.journal
            if journal is not None and journal.enabled:
                # the executor journals its own failures; this also
                # covers planning / prefix-resolution errors that never
                # reached it
                journal.record_error(task.request_id, err, source="server")
        self.progress.finish(task.request_id)
        METRICS.counter(
            "repro_server_queries_total",
            "finished requests by tenant and outcome",
        ).inc(tenant=task.tenant, outcome="ok" if outcome.ok else "error")
        if outcome.result is not None:
            METRICS.histogram(
                "repro_server_request_simulated_seconds",
                "per-request simulated makespan: own fetches plus any "
                "shared-prefix evaluation the request led (the SLO "
                "suite's p99 source)",
            ).observe(
                outcome.result.log.simulated_seconds + task.prefix_seconds,
                tenant=task.tenant,
            )
        return outcome


# ---------------------------------------------------------------------- #
# the request core: what every worker, the cohort and execute_shared run
# ---------------------------------------------------------------------- #

#: The execution modes whose executor fetches every page of a navigation
#: prefix, so only their requests subscribe.  An adaptive one may prune or
#: switch away part of a prefix (docs/ADAPTIVE.md), so it runs unshared.
_SHARING_MODES = frozenset({"staged", "pipelined"})


def _subscribe(
    navigator: SharedNavigator, expr: Expr, options: QueryOptions
) -> tuple[dict[str, Optional[WebResource]], tuple[PrefixSignature, ...], float]:
    """The pages of ``expr``'s navigation prefixes, resolved through
    ``navigator``, their signatures, and the simulated seconds this call
    spent leading resolutions; nothing for a request outside
    :data:`_SHARING_MODES`.  A prefix whose resolution raises (navigator
    fault, e.g. retries exhausted) is skipped: the query fetches that
    chain itself, and sees a persistent fault itself."""
    shared: dict[str, Optional[WebResource]] = {}
    signatures: list[PrefixSignature] = []
    led = 0.0
    if options.execution not in _SHARING_MODES:
        return shared, (), led
    for signature, chain in navigation_prefixes(expr):
        try:
            pages, seconds = navigator.resolve(signature, chain, options)
        except Exception:
            continue
        led += seconds
        signatures.append(signature)
        shared.update(pages)
    return shared, tuple(signatures), led


def _execute(
    env: SiteEnv,
    expr: Expr,
    options: QueryOptions,
    shared: dict[str, Optional[WebResource]],
    *,
    client: Optional[WebClient] = None,
    request_id: Optional[str] = None,
    board: Optional[ProgressBoard] = None,
) -> ExecutionResult:
    """Run ``expr`` with the ``shared`` pages injected, on ``client``
    (default: a private clone of the environment's client), through an
    executor built as :func:`~repro.sites.site_env` builds ``env.executor``,
    with the planner and cost model ``env`` holds now (after any
    :meth:`~repro.sites.SiteEnv.refresh_statistics`)."""
    if client is None:
        base = env.client
        client = WebClient(
            base.server, base.network, base.retry_policy, base.cache
        )
    executor = RemoteExecutor(
        env.scheme,
        client,
        env.registry,
        planner=env.planner,
        cost_model=env.cost_model,
    )
    return executor.execute(
        expr,
        options=options,
        shared_pages=shared or None,
        request_id=request_id,
        board=board,
    )


@dataclass
class SharedExecution:
    """A single query run through the prefix-sharing machinery, with the
    navigator's accounting alongside the query's own.

    ``combined_log`` (navigator first, then the query) is the run's total
    network footprint — the thing conformance laws compare against a solo
    reference run."""

    result: ExecutionResult
    navigator_log: AccessLog
    signatures: tuple[PrefixSignature, ...]

    @property
    def combined_log(self) -> AccessLog:
        return self.navigator_log.merge(self.result.log)

    @property
    def pages_shared(self) -> int:
        return self.result.log.pages_shared


def execute_shared(
    env: SiteEnv,
    expr: Expr,
    options: Optional[QueryOptions] = None,
    navigator: Optional[SharedNavigator] = None,
    client: Optional[WebClient] = None,
    request_id: Optional[str] = None,
) -> SharedExecution:
    """Run one plan through the server's request core, single-threaded.

    The core the worker threads run (:func:`_subscribe`, then
    :func:`_execute`), without threads in the loop: the navigator
    resolves the plan's prefixes (a staged or pipelined request only),
    the query executes on a client clone with the pages injected — the QA
    oracle's ``server`` cells differential-test it.  Pass a ``navigator``
    to share across calls (hot prefixes); by default each call gets a
    fresh one (every prefix led, nothing reused).  Pass a ``client`` to
    run the query on a specific clone — the oracle does, so the query's
    log stays observable even when the run aborts on exhausted retries
    (the exception propagates; the logs keep what happened up to it)."""
    opts = env.resolve_options(options)
    nav = navigator or SharedNavigator(env.scheme, env.client, env.registry)
    before = nav.log.snapshot()
    shared, signatures, _ = _subscribe(nav, expr, opts)
    result = _execute(
        env, expr, opts, shared, client=client, request_id=request_id
    )
    return SharedExecution(
        result=result,
        navigator_log=nav.log.delta(before),
        signatures=signatures,
    )
