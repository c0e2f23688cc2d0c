"""The plan-space differential oracle.

The paper's central semantic claim (Sections 6–7): every rewrite in rules
1–9 — and hence every plan Algorithm 1 enumerates — computes the *same
relation*, differing only in page accesses.  PR 1 added concurrent,
fault-tolerant fetching and PR 2 added three cache policies; both promise
their own transparency properties (page counts invariant under the worker
pool, ``off`` bit-for-bit equal to no cache, warm caches only trading
downloads for light connections).  This oracle enforces all of it
mechanically.

For one query it enumerates **all** candidate plans
(:meth:`repro.optimizer.planner.Planner.enumerate_plans`), then executes
each under a configurable matrix of

* **cache modes** — ``off``, ``per_query``, ``cross_query_cold``,
  ``cross_query_warm`` (pre-warmed with the same plan), and
  ``cross_query_stale`` (pre-warmed, then a seeded subset of pages
  silently touched via :func:`repro.sitegen.mutations.perturb_server`);
* **fault schedules** — ``none``, ``transient`` (deterministic
  hash-scheduled faults absorbed by retries), ``exhausted`` (every
  attempt fails; the query must abort with RetriesExhaustedError unless
  a warm cache can answer it without the network);
* **worker counts** — serial and pooled.

PR 6 added a fourth axis: **execution strategy** now includes ``server``
cells, which push the plan through the multi-query server's plan-level
sharing machinery (:func:`repro.server.service.execute_shared`) — a
shared navigator evaluates the plan's navigation prefixes on its own
client, the query runs on a clone with those pages injected, and the
*combined* footprint (navigator + query) must obey every law a solo run
does, plus the sharing-attribution arithmetic
(``own pages + revalidations + pages_shared == reference pages``).

PR 8 added ``adaptive`` cells: the runtime executor may prune provably
irrelevant fetches and switch pointer-join ↔ pointer-chase mid-query
(:mod:`repro.engine.adaptive`), so those cells
keep the digest-equality law verbatim but relax every cost equality to a
one-sided bound against the static reference (never *more* pages, bytes,
attempts, or URLs — ``pages_adaptive ≤ pages_staged`` in every cell).

and asserts, cell by cell:

1. *relation equality* — every successful cell's canonical answer equals
   the query's baseline (plan 0, serial, uncached, fault-free);
2. *cost accounting* — the :class:`~repro.web.client.AccessLog`
   reconciles (``pages_saved == cache_hits + revalidations``, aggregate
   counters re-derivable from the per-fetch records);
3. *mode-specific cost laws* — e.g. a serial uncached fault-free cell is
   bit-for-bit the reference execution; page counts are invariant under
   the worker count; a fully warm cross-query cache downloads zero pages
   and revalidates exactly the reference page set; a stale cache
   re-downloads exactly the touched pages; a warm cache parses nothing and
   a stale one parses exactly what it re-downloaded (the wrapped tuple
   lives on the cache entry).

Any violation lands in the cell's report record with a reproducible cell
id (see :mod:`repro.qa.report` and ``docs/TESTING.md``).
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from repro.engine.pipeline import EXECUTION_MODES
from repro.errors import RetriesExhaustedError
from repro.nested.relation import relation_digest
from repro.obs import NULL_TRACER, RecordingTracer
from repro.obs.journal import Journal
from repro.options import QueryOptions
from repro.qa.report import CellRecord, ConformanceReport
from repro.server.prefix import SharedNavigator
from repro.server.service import execute_shared
from repro.sitegen.mutations import perturb_server
from repro.sites import SiteEnv
from repro.views.conjunctive import ConjunctiveQuery
from repro.web.cache import CachePolicy, NO_CACHE, PageCache
from repro.web.client import AccessLog, CostSummary, FetchConfig, RetryPolicy
from repro.web.server import FaultPolicy
from repro.wrapper.wrapper import WrapperRegistry

__all__ = [
    "CACHE_MODES",
    "EXEC_MODES",
    "FAULT_MODES",
    "TRACE_MODES",
    "JOURNAL_MODES",
    "Cell",
    "DifferentialOracle",
    "MatrixSpec",
    "counted_wraps",
    "relation_digest",
]


@contextmanager
def counted_wraps(registry: WrapperRegistry) -> Iterator[list[tuple[str, str]]]:
    """Log every ``registry.wrap`` call made inside the block as
    ``(page_scheme, url)``.  The count is taken here, from outside, so that
    it never becomes a field of ``ExecutionResult`` / ``CostSummary`` and
    journal and EXPLAIN output stay what they were."""
    calls: list[tuple[str, str]] = []
    inner = registry.wrap

    def wrap(page_scheme: str, url: str, html: str) -> dict:
        calls.append((page_scheme, url))
        return inner(page_scheme, url, html)

    registry.wrap = wrap  # instance attribute shadowing the method
    try:
        yield calls
    finally:
        del registry.wrap


#: All cache-matrix dimensions, in canonical order.
CACHE_MODES = (
    "off",
    "per_query",
    "cross_query_cold",
    "cross_query_warm",
    "cross_query_stale",
)

#: All fault-schedule dimensions, in canonical order.
FAULT_MODES = ("none", "transient", "exhausted")

#: All execution-mode dimensions, in canonical order: the
#: :data:`~repro.engine.pipeline.EXECUTION_MODES` plus ``server``.
#: ``pipelined`` cells must be indistinguishable from ``staged`` ones in
#: every checked invariant — pages, URL sets, digests — which is exactly
#: the non-speculation guarantee of :mod:`repro.engine.pipeline`.
#: ``adaptive`` cells run the runtime-pruning, strategy-switching
#: executor (:mod:`repro.engine.adaptive`): digests
#: stay bit-for-bit equal to the baseline, but the cost laws become
#: one-sided — pages, bytes, attempts, and the downloaded URL set are
#: bounded *above* by (resp. subsets of) the static reference's, which
#: is exactly the "provably irrelevant fetches only" guarantee.
#: ``server`` cells run through the multi-query server's prefix-sharing
#: machinery and are held to the same invariants on the *combined*
#: navigator + query footprint, plus the attribution arithmetic.
EXEC_MODES = EXECUTION_MODES + ("server",)

#: Tracer configurations the matrix can run under.  Tracing must never
#: change an answer or a page count, so the matrix is re-runnable with a
#: recording tracer attached and compared bit-for-bit against ``off``.
TRACE_MODES = ("off", "noop", "recording")

#: Journal configurations: ``on`` attaches a fresh event journal to every
#: measured run (one request block per cell, keyed by the cell id).  Like
#: tracing, journaling must be digest- and cost-neutral — the matrix is
#: re-runnable with journaling on and compared bit-for-bit against
#: ``off`` (tests/test_obs_journal.py pins this).
JOURNAL_MODES = ("off", "on")


# --------------------------------------------------------------------- #
# the matrix
# --------------------------------------------------------------------- #

# relation_digest moved next to Relation itself so the event journal can
# record per-request digests without importing the QA layer; the import
# above keeps the oracle's historical public name working.


@dataclass(frozen=True)
class MatrixSpec:
    """Which dimensions of the conformance matrix to run, and how."""

    cache_modes: Sequence[str] = CACHE_MODES
    fault_modes: Sequence[str] = FAULT_MODES
    worker_counts: Sequence[int] = (1, 4)
    #: execution strategies each cell is run under; pipelined cells are
    #: held to the same invariants as staged ones (same pages, same
    #: digests) — the pipeline's non-speculation guarantee
    exec_modes: Sequence[str] = EXEC_MODES
    #: per-attempt transient failure probability (absorbed by retries)
    transient_rate: float = 0.25
    #: per-attempt failure probability for the retries-exhausted schedule
    exhausted_rate: float = 0.999999999
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=8, backoff_seconds=0.01
        )
    )
    #: fraction of pages silently touched for ``cross_query_stale``
    stale_fraction: float = 0.5
    #: keep only the N cheapest candidate plans (None: the full space)
    max_plans: Optional[int] = None
    cache_capacity: int = 4096
    #: tracer attached to every measured run: ``off`` (no tracer at all),
    #: ``noop`` (the shared null tracer), or ``recording`` (a fresh
    #: :class:`~repro.obs.RecordingTracer` per cell, whose rendering is
    #: attached to any violation the cell produces)
    trace: str = "off"
    #: event journal attached to every measured run: ``off`` or ``on`` (a
    #: fresh :class:`~repro.obs.journal.Journal` per cell, request id =
    #: cell id) — answers and page counts must be identical in both modes
    journal: str = "off"

    def __post_init__(self) -> None:
        for mode in self.cache_modes:
            if mode not in CACHE_MODES:
                raise ValueError(f"unknown cache mode {mode!r}")
        for mode in self.fault_modes:
            if mode not in FAULT_MODES:
                raise ValueError(f"unknown fault mode {mode!r}")
        for mode in self.exec_modes:
            if mode not in EXEC_MODES:
                raise ValueError(f"unknown exec mode {mode!r}")
        if any(w < 1 for w in self.worker_counts):
            raise ValueError("worker counts must be >= 1")
        if self.trace not in TRACE_MODES:
            raise ValueError(
                f"unknown trace mode {self.trace!r} "
                f"(choose from {', '.join(TRACE_MODES)})"
            )
        if self.journal not in JOURNAL_MODES:
            raise ValueError(
                f"unknown journal mode {self.journal!r} "
                f"(choose from {', '.join(JOURNAL_MODES)})"
            )


@dataclass(frozen=True)
class Cell:
    """One point of the conformance matrix."""

    query_id: str
    plan_index: int
    cache_mode: str
    fault_mode: str
    workers: int
    exec_mode: str = "staged"

    @property
    def cell_id(self) -> str:
        """Reproducible id.  The exec component is appended only for
        non-staged cells, so every pre-pipeline cell id stays valid (and
        parses back to the same cell)."""
        base = (
            f"{self.query_id}/p{self.plan_index}/{self.cache_mode}/"
            f"{self.fault_mode}/w{self.workers}"
        )
        if self.exec_mode == "staged":
            return base
        return f"{base}/{self.exec_mode}"

    @classmethod
    def parse(cls, cell_id: str) -> "Cell":
        """Inverse of :attr:`cell_id` (used by ``--cell`` reproduction).

        Accepts both the 5-part pre-pipeline form (exec mode defaults to
        ``staged``) and the 6-part form with an explicit exec mode."""
        parts = cell_id.split("/")
        if len(parts) not in (5, 6) or not parts[1].startswith("p") \
                or not parts[4].startswith("w"):
            raise ValueError(
                f"bad cell id {cell_id!r} (expected "
                f"query/p<plan>/<cache>/<fault>/w<workers>[/<exec>])"
            )
        exec_mode = parts[5] if len(parts) == 6 else "staged"
        if exec_mode not in EXEC_MODES:
            raise ValueError(
                f"bad cell id {cell_id!r} (unknown exec mode "
                f"{exec_mode!r}; choose from {', '.join(EXEC_MODES)})"
            )
        return cls(
            query_id=parts[0],
            plan_index=int(parts[1][1:]),
            cache_mode=parts[2],
            fault_mode=parts[3],
            workers=int(parts[4][1:]),
            exec_mode=exec_mode,
        )


@dataclass
class _Reference:
    """Serial, uncached, fault-free execution of one plan."""

    digest: str
    rows: int
    cost: CostSummary
    urls: frozenset


class DifferentialOracle:
    """Runs the conformance matrix for a set of queries over one site.

    The oracle owns the environment for the duration of a run: it installs
    and removes fault policies on the site's server and attaches fresh
    page caches per cell, so every cell is hermetic and reproducible from
    its id alone (given the site and the oracle seed)."""

    def __init__(
        self,
        env: SiteEnv,
        queries: dict,
        site_name: str = "",
        seed: int = 0,
        spec: Optional[MatrixSpec] = None,
    ):
        self.env = env
        self.site_name = site_name or getattr(env.scheme, "name", "site")
        self.seed = seed
        self.spec = spec or MatrixSpec()
        self.queries: dict[str, ConjunctiveQuery] = {
            qid: env.sql(q) if isinstance(q, str) else q
            for qid, q in queries.items()
        }
        #: raw SQL per query id (journal metadata; replay re-plans from it)
        self.query_text: dict[str, str] = {
            qid: q if isinstance(q, str) else str(q)
            for qid, q in queries.items()
        }
        self._plans: dict[str, list] = {}
        self._references: dict[tuple, _Reference] = {}
        #: the journal of the most recent journaled cell (tests inspect it)
        self.last_journal: Optional[Journal] = None

    # ------------------------------------------------------------------ #
    # the plan space
    # ------------------------------------------------------------------ #

    def plans(self, query_id: str) -> list:
        """All candidate plans for ``query_id`` (cheapest first, capped by
        ``spec.max_plans``)."""
        if query_id not in self._plans:
            self._plans[query_id] = self.env.enumerate_plans(
                self.queries[query_id], limit=self.spec.max_plans
            )
        return self._plans[query_id]

    def cells(self) -> list[Cell]:
        """The full matrix, in canonical (deterministic) order."""
        out = []
        for query_id in sorted(self.queries):
            for plan_index in range(len(self.plans(query_id))):
                for cache_mode in self.spec.cache_modes:
                    for fault_mode in self.spec.fault_modes:
                        for workers in self.spec.worker_counts:
                            for exec_mode in self.spec.exec_modes:
                                out.append(
                                    Cell(
                                        query_id=query_id,
                                        plan_index=plan_index,
                                        cache_mode=cache_mode,
                                        fault_mode=fault_mode,
                                        workers=workers,
                                        exec_mode=exec_mode,
                                    )
                                )
        return out

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        shard_index: int = 0,
        shard_count: int = 1,
    ) -> ConformanceReport:
        """Execute one shard of the matrix (cell ``i`` belongs to shard
        ``i % shard_count``) and return the conformance report."""
        if not (0 <= shard_index < shard_count):
            raise ValueError(
                f"shard index {shard_index} outside 0..{shard_count - 1}"
            )
        all_cells = self.cells()
        report = ConformanceReport(
            site=self.site_name,
            seed=self.seed,
            shard_index=shard_index,
            shard_count=shard_count,
            total_cells=len(all_cells),
            queries={
                qid: str(self.queries[qid]) for qid in sorted(self.queries)
            },
        )
        for index, cell in enumerate(all_cells):
            if index % shard_count == shard_index:
                report.cells.append(self.run_cell(cell))
        return report

    def run_cell(self, cell: Union[Cell, str]) -> CellRecord:
        """Execute one matrix cell hermetically and check its invariants."""
        if isinstance(cell, str):
            cell = Cell.parse(cell)
        plans = self.plans(cell.query_id)
        if not (0 <= cell.plan_index < len(plans)):
            raise ValueError(
                f"{cell.query_id} has {len(plans)} plans; "
                f"no plan {cell.plan_index}"
            )
        plan = plans[cell.plan_index]
        reference = self._reference(cell.query_id, cell.plan_index)
        baseline = self._reference(cell.query_id, 0)
        env = self.env
        server = env.site.server

        record = CellRecord(
            cell_id=cell.cell_id,
            query_id=cell.query_id,
            plan_index=cell.plan_index,
            cache_mode=cell.cache_mode,
            fault_mode=cell.fault_mode,
            workers=cell.workers,
            exec_mode=cell.exec_mode,
            ok=True,
            plan_text=plan.render(scheme=env.scheme),
        )
        violations: list[str] = []

        # -- cache setup (plus prewarm / stale perturbation) ------------ #
        cache = self._make_cache(cell.cache_mode)
        touched: frozenset = frozenset()
        if cell.cache_mode in ("cross_query_warm", "cross_query_stale"):
            server.fault_policy = None
            prewarm = env.executor.execute(
                plan.expr,
                options=QueryOptions(
                    cache=cache, fetch=FetchConfig(max_workers=1)
                ),
            )
            if relation_digest(prewarm.relation) != reference.digest:
                violations.append(
                    "prewarm run disagrees with the uncached reference"
                )
            if cell.cache_mode == "cross_query_stale":
                touched = frozenset(
                    perturb_server(
                        server,
                        seed=self._cell_seed(cell),
                        fraction=self.spec.stale_fraction,
                    )
                )

        # -- fault schedule --------------------------------------------- #
        fault = self._make_fault(cell.fault_mode)
        expected_failure = self._expect_failure(cell, reference, touched)

        # -- the measured run ------------------------------------------- #
        tracer = self._make_tracer()
        journal = self._make_journal(cell)
        server.fault_policy = fault
        result = None
        error: Optional[RetriesExhaustedError] = None
        query_delta: Optional[AccessLog] = None
        navigator: Optional[SharedNavigator] = None
        if cell.exec_mode == "server":
            # the multi-query server's sharing machinery, single-threaded:
            # a fresh navigator resolves the plan's navigation prefixes on
            # its own client, the query runs on a clone with those pages
            # injected.  Invariants below are checked on the COMBINED
            # footprint, which must match a solo run's law for the cell's
            # cache/fault mode; the sharing attribution is checked on the
            # split logs afterwards.
            navigator, clone = self._make_server(env)
            options = QueryOptions(
                cache=cache,
                fetch=FetchConfig(max_workers=cell.workers),
                retry=self.spec.retry,
                tracer=tracer,
                journal=journal,
            )
            try:
                with counted_wraps(env.registry) as wraps:
                    shared_run = execute_shared(
                        env,
                        plan.expr,
                        options,
                        navigator=navigator,
                        client=clone,
                        request_id=cell.cell_id,
                    )
                result = shared_run.result
                query_delta = result.log
            except RetriesExhaustedError as err:
                error = err
                query_delta = clone.log  # private clone, nobody else writes it
            finally:
                server.fault_policy = None
            delta = navigator.log.merge(query_delta)
        else:
            before = env.client.log.snapshot()
            try:
                with counted_wraps(env.registry) as wraps:
                    result = env.executor.execute(
                        plan.expr,
                        options=QueryOptions(
                            cache=cache,
                            fetch=FetchConfig(max_workers=cell.workers),
                            retry=self.spec.retry,
                            tracer=tracer,
                            execution=cell.exec_mode,
                            journal=journal,
                        ),
                        request_id=cell.cell_id,
                    )
            except RetriesExhaustedError as err:
                error = err
            finally:
                server.fault_policy = None
            delta = env.client.log.delta(before)

        # -- invariants -------------------------------------------------- #
        violations.extend(delta.reconcile())
        cost = delta.cost
        record.pages = cost.pages
        record.light_connections = cost.light_connections
        record.bytes = cost.bytes
        record.attempts = cost.attempts
        record.cache_hits = cost.cache_hits
        record.revalidations = cost.revalidations
        record.pages_saved = cost.pages_saved
        record.pages_shared = cost.pages_shared
        record.simulated_seconds = cost.simulated_seconds

        if error is not None:
            record.expected_failure = True
            if not expected_failure and not self._doomed(fault, error):
                record.expected_failure = False
                violations.append(
                    f"unexpected retries-exhausted abort on {error.url!r}"
                )
            if delta.page_downloads != 0:
                violations.append(
                    f"{delta.page_downloads} downloads succeeded under an "
                    "exhausted fault schedule"
                )
        elif expected_failure:
            if cell.exec_mode == "adaptive" and delta.page_downloads == 0:
                # an adaptive cell may legitimately survive an exhausted
                # schedule by pruning the very fetch that would have
                # aborted — but only if it touched the network zero times
                # (any download under an exhausted schedule would fail)
                record.rows = len(result.relation)
                record.relation_digest = relation_digest(result.relation)
                if record.relation_digest != baseline.digest:
                    violations.append(
                        f"relation mismatch: {record.rows} rows, digest "
                        f"{record.relation_digest} != baseline "
                        f"{baseline.digest} ({baseline.rows} rows)"
                    )
            else:
                violations.append(
                    "expected a retries-exhausted abort, but the query "
                    "succeeded"
                )
        else:
            record.rows = len(result.relation)
            record.relation_digest = relation_digest(result.relation)
            if record.relation_digest != baseline.digest:
                violations.append(
                    f"relation mismatch: {record.rows} rows, digest "
                    f"{record.relation_digest} != baseline {baseline.digest} "
                    f"({baseline.rows} rows)"
                )
            violations.extend(
                self._check_costs(cell, delta, reference, touched, len(wraps))
            )
            if cell.exec_mode == "server":
                violations.extend(
                    self._check_sharing(query_delta, navigator.log, reference)
                )

        record.violations = violations
        record.ok = not violations
        if isinstance(tracer, RecordingTracer):
            record.trace_spans = len(tracer.spans())
            if violations:
                # every conformance violation ships with its trace: the
                # cell id reproduces the run, the excerpt explains it
                record.trace_excerpt = tracer.render(
                    max_events=4, max_lines=80
                )
        return record

    # ------------------------------------------------------------------ #
    # per-cell machinery
    # ------------------------------------------------------------------ #

    def _make_tracer(self):
        if self.spec.trace == "noop":
            return NULL_TRACER
        if self.spec.trace == "recording":
            return RecordingTracer()
        return None

    def _make_journal(self, cell: Cell) -> Optional[Journal]:
        """A fresh per-cell journal (``journal="on"``), its request block
        opened under the cell id with enough metadata to replay: the site
        name and the query's SQL text.  Retained on ``last_journal`` so
        tests can reconstruct the cell they just ran."""
        if self.spec.journal != "on":
            return None
        journal = Journal()
        journal.begin_request(
            cell.cell_id,
            site=self.site_name,
            query=self.query_text.get(cell.query_id, ""),
            cell=cell.cell_id,
            plan_index=cell.plan_index,
        )
        self.last_journal = journal
        return journal

    def _make_server(self, env: SiteEnv):
        """A fresh navigator + query-client clone for one ``server`` cell
        (hermetic: nothing is retained across cells, so every cell's
        prefixes are led by its own navigator)."""
        from repro.web.client import WebClient

        navigator = SharedNavigator(env.scheme, env.client, env.registry)
        clone = WebClient(
            env.client.server, env.client.network, env.client.retry_policy
        )
        return navigator, clone

    def _check_sharing(
        self,
        query_log: AccessLog,
        nav_log: AccessLog,
        reference: _Reference,
    ) -> list[str]:
        """The sharing-attribution arithmetic for a successful server cell.

        The navigator's fetches and the query's own fetches partition the
        reference page set, with ``pages_shared`` marking the hand-off:
        every page is either fetched (or revalidated) by exactly one of
        the two logs, and the query's share of the navigator's work is
        exactly the pages it was handed."""
        problems: list[str] = []
        ref = reference.cost
        accounted = (
            query_log.page_downloads
            + query_log.revalidations
            + query_log.pages_shared
        )
        if accounted != ref.pages:
            problems.append(
                f"sharing attribution: own {query_log.page_downloads} + "
                f"revalidated {query_log.revalidations} + shared "
                f"{query_log.pages_shared} != reference pages {ref.pages}"
            )
        provided = nav_log.page_downloads + nav_log.revalidations
        if provided != query_log.pages_shared:
            problems.append(
                f"sharing attribution: navigator provided {provided} pages "
                f"but the query was credited {query_log.pages_shared}"
            )
        if query_log.pages_shared <= 0:
            problems.append(
                "server cell shared no pages (every plan has at least its "
                "entry-point prefix)"
            )
        return problems

    def _make_cache(self, cache_mode: str) -> PageCache:
        if cache_mode == "off":
            return NO_CACHE
        policy = (
            CachePolicy.PER_QUERY
            if cache_mode == "per_query"
            else CachePolicy.CROSS_QUERY
        )
        return PageCache(capacity=self.spec.cache_capacity, policy=policy)

    def _make_fault(self, fault_mode: str) -> Optional[FaultPolicy]:
        if fault_mode == "none":
            return None
        rate = (
            self.spec.transient_rate
            if fault_mode == "transient"
            else self.spec.exhausted_rate
        )
        return FaultPolicy(failure_rate=rate, seed=self.seed)

    def _cell_seed(self, cell: Cell) -> int:
        digest = hashlib.blake2b(
            f"{self.seed}:{cell.cell_id}".encode(), digest_size=4
        ).digest()
        return int.from_bytes(digest, "big")

    def _expect_failure(
        self, cell: Cell, reference: _Reference, touched: frozenset
    ) -> bool:
        """Must this cell abort with RetriesExhaustedError?

        Only the ``exhausted`` schedule ever aborts — and only when the
        plan has to touch the network at all: a fully warm cross-query
        cache answers through light connections (HEADs bypass the fault
        policy), and a stale one aborts iff the perturbation touched a
        page this plan actually needs."""
        if cell.fault_mode != "exhausted":
            return False
        if cell.cache_mode == "cross_query_warm":
            return False
        if cell.cache_mode == "cross_query_stale":
            return bool(touched & reference.urls)
        return True

    def _doomed(
        self, fault: Optional[FaultPolicy], error: RetriesExhaustedError
    ) -> bool:
        """Whether the deterministic schedule genuinely dooms this URL —
        every allowed attempt was scheduled to fail.  Under the
        ``transient`` schedule this is astronomically rare but legitimate;
        anything else is a real violation."""
        if fault is None:
            return False
        return all(
            fault.will_fail(error.url, attempt)
            for attempt in range(1, self.spec.retry.max_attempts + 1)
        )

    def _check_costs(
        self,
        cell: Cell,
        delta,
        reference: _Reference,
        touched: frozenset,
        wraps: int,
    ) -> list[str]:
        """Mode-specific cost laws for a successful cell (``wraps``: pages
        parsed during the measured run).

        Static modes are held to *equalities* against the serial uncached
        reference.  The ``adaptive`` mode may prune provably irrelevant
        fetches (docs/ADAPTIVE.md), so its laws relax to one-sided bounds:
        never more pages, bytes, or URLs than the reference — and the
        relation digest (checked by the caller) must still be bit-for-bit
        the baseline's."""
        problems: list[str] = []
        ref = reference.cost
        adaptive = cell.exec_mode == "adaptive"

        def check(condition: bool, message: str) -> None:
            if not condition:
                problems.append(message)

        if cell.cache_mode in ("off", "per_query", "cross_query_cold"):
            # the cache cannot help a cold / scoped-out run: downloads are
            # exactly the reference's, at every worker count (bounded
            # above by it for the adaptive modes)
            check(
                delta.page_downloads <= ref.pages
                if adaptive
                else delta.page_downloads == ref.pages,
                f"pages={delta.page_downloads} "
                f"{'>' if adaptive else '!='} reference {ref.pages}",
            )
            check(
                delta.bytes_downloaded <= ref.bytes
                if adaptive
                else delta.bytes_downloaded == ref.bytes,
                f"bytes={delta.bytes_downloaded} "
                f"{'>' if adaptive else '!='} reference {ref.bytes}",
            )
            check(
                delta.cache_hits == 0 and delta.revalidations == 0,
                f"cold cell served {delta.cache_hits} hits / "
                f"{delta.revalidations} revalidations from the cache",
            )
            check(
                set(delta.downloaded_urls) <= set(reference.urls)
                if adaptive
                else set(delta.downloaded_urls) == set(reference.urls),
                "downloaded URL set is not a subset of the reference"
                if adaptive
                else "downloaded URL set differs from the reference",
            )
            if cell.fault_mode == "none":
                check(
                    delta.attempts <= ref.attempts
                    if adaptive
                    else delta.attempts == ref.attempts,
                    f"attempts={delta.attempts} "
                    f"{'>' if adaptive else '!='} reference {ref.attempts} "
                    "without faults",
                )
                if cell.workers == 1 and cell.cache_mode == "off" and (
                    not adaptive
                ):
                    # the serial uncached cell IS the reference execution:
                    # every counter bit-for-bit, wall time up to float
                    # accumulation error (log deltas subtract running sums)
                    cost = delta.cost
                    check(
                        (cost.pages, cost.light_connections, cost.bytes,
                         cost.attempts, cost.cache_hits, cost.revalidations,
                         cost.pages_saved)
                        == (ref.pages, ref.light_connections, ref.bytes,
                            ref.attempts, ref.cache_hits, ref.revalidations,
                            ref.pages_saved),
                        f"serial k=1 cost {cost} != reference {ref}",
                    )
                    check(
                        math.isclose(
                            cost.simulated_seconds,
                            ref.simulated_seconds,
                            rel_tol=1e-9,
                            abs_tol=1e-9,
                        ),
                        f"serial k=1 wall time {cost.simulated_seconds!r} "
                        f"!= reference {ref.simulated_seconds!r}",
                    )
            else:
                check(
                    delta.attempts >= delta.page_downloads,
                    "fewer attempts than downloads under faults",
                )
        elif cell.cache_mode == "cross_query_warm":
            check(
                delta.page_downloads == 0,
                f"warm cache still downloaded {delta.page_downloads} pages",
            )
            check(
                delta.revalidations <= ref.pages
                if adaptive
                else delta.revalidations == ref.pages,
                f"revalidations={delta.revalidations} "
                f"{'>' if adaptive else '!='} reference pages {ref.pages}",
            )
            check(
                delta.pages_saved <= ref.pages
                if adaptive
                else delta.pages_saved == ref.pages,
                f"pages_saved={delta.pages_saved} "
                f"{'>' if adaptive else '!='} reference pages {ref.pages}",
            )
            check(wraps == 0, f"warm cache still parsed {wraps} pages")
        elif cell.cache_mode == "cross_query_stale":
            stale = len(touched & reference.urls)
            fresh = int(ref.pages) - stale
            check(
                delta.page_downloads <= stale
                if adaptive
                else delta.page_downloads == stale,
                f"stale cache re-downloaded {delta.page_downloads} pages, "
                f"expected {'at most' if adaptive else 'exactly'} the "
                f"{stale} touched ones",
            )
            check(
                delta.revalidations <= fresh
                if adaptive
                else delta.revalidations == fresh,
                f"revalidations={delta.revalidations} "
                f"{'>' if adaptive else '!='} untouched pages {fresh}",
            )
            check(
                delta.light_connections <= ref.pages
                if adaptive
                else delta.light_connections == ref.pages,
                f"light={delta.light_connections} "
                f"{'>' if adaptive else '!='} one HEAD per cached "
                f"page ({ref.pages})",
            )
            check(
                delta.page_downloads + delta.pages_saved <= ref.pages
                if adaptive
                else delta.page_downloads + delta.pages_saved == ref.pages,
                f"downloads + pages_saved "
                f"{'>' if adaptive else '!='} reference pages",
            )
            check(
                wraps == delta.page_downloads,
                f"stale cache parsed {wraps} pages but re-downloaded "
                f"{delta.page_downloads}",
            )
        return problems

    # ------------------------------------------------------------------ #
    # references
    # ------------------------------------------------------------------ #

    def _reference(self, query_id: str, plan_index: int) -> _Reference:
        """The serial, uncached, fault-free execution of one plan (cached).

        Plan 0's reference doubles as the query's *baseline*: the answer
        every other cell must reproduce."""
        key = (query_id, plan_index)
        if key not in self._references:
            env = self.env
            server = env.site.server
            previous = server.fault_policy
            server.fault_policy = None
            try:
                before = env.client.log.snapshot()
                result = env.executor.execute(
                    self.plans(query_id)[plan_index].expr,
                    options=QueryOptions(
                        cache=NO_CACHE, fetch=FetchConfig(max_workers=1)
                    ),
                )
                delta = env.client.log.delta(before)
            finally:
                server.fault_policy = previous
            self._references[key] = _Reference(
                digest=relation_digest(result.relation),
                rows=len(result.relation),
                cost=delta.cost,
                urls=frozenset(delta.downloaded_urls),
            )
        return self._references[key]
