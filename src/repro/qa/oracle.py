"""The plan-space differential oracle.

The paper's central semantic claim (Sections 6–7): every rewrite in rules
1–9 — and hence every plan Algorithm 1 enumerates — computes the *same
relation*, differing only in page accesses.  Concurrent fetching, retries,
page caches, prefix sharing and adaptive execution each promise to keep
that relation and to move page costs only in stated ways.  This oracle
enforces all of it mechanically.

For one query it enumerates **all** candidate plans
(:meth:`repro.optimizer.planner.Planner.enumerate_plans`) and executes
each under a matrix of

* **cache modes** — ``off``, ``per_query``, ``cross_query_cold``,
  ``cross_query_warm`` (pre-warmed with the same plan), and
  ``cross_query_stale`` (pre-warmed, then a seeded subset of pages
  silently touched via :func:`repro.sitegen.mutations.perturb_server`);
* **fault schedules** — ``none``, ``transient`` (deterministic
  hash-scheduled faults absorbed by retries), ``exhausted`` (every
  attempt fails; the query must abort with RetriesExhaustedError unless
  a warm cache can answer it without the network);
* **worker counts** — serial and pooled;
* **exec modes** — :data:`EXEC_MODES`.

Every cell must reproduce the query's baseline answer (plan 0, serial,
uncached, fault-free), its :class:`~repro.web.client.AccessLog` must
reconcile, and every row of :data:`LAWS` that applies to it must hold:
the cost laws per cache, fault, worker and exec mode, and the server
cells' sharing arithmetic.  :data:`RELATIONS` states once how a law
relaxes in an adaptive cell (an access proven irrelevant may be skipped,
so ``pages_adaptive ≤ pages_staged``).

Any violation lands in the cell's report record with a reproducible cell
id (see :mod:`repro.qa.report` and ``docs/TESTING.md``).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, Iterator, Optional, Sequence, Union

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
from repro.web.client import (
    AccessLog, CostSummary, FetchConfig, RetryPolicy, WebClient,
)
from repro.web.server import FaultPolicy
from repro.wrapper.wrapper import WrapperRegistry

__all__ = [
    "CACHE_MODES",
    "LAWS",
    "RELATIONS",
    "EXEC_MODES",
    "FAULT_MODES",
    "TRACE_MODES",
    "JOURNAL_MODES",
    "Cell",
    "Cells",
    "DifferentialOracle",
    "Law",
    "MatrixSpec",
    "Run",
    "check_laws",
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
#: every checked invariant — the non-speculation guarantee of
#: :mod:`repro.engine.pipeline`.  ``adaptive`` cells run the runtime-pruning,
#: strategy-switching executor (:mod:`repro.engine.adaptive`); their cost
#: laws hold one-sided (:data:`RELATIONS`).  ``server`` cells run the
#: multi-query server's request core, the code its worker threads run
#: (:func:`repro.server.service.execute_shared`): their laws read the
#: *combined* navigator + query footprint, plus the sharing arithmetic.
EXEC_MODES = EXECUTION_MODES + ("server",)

#: Tracer configurations the matrix can run under.  Tracing must never
#: change an answer or a page count, so the matrix is re-runnable with a
#: recording tracer attached and compared bit-for-bit against ``off``.
TRACE_MODES = ("off", "noop", "recording")

#: Journal configurations: ``on`` attaches a fresh event journal to every
#: measured run (one request block per cell, keyed by the cell id).  Like
#: tracing, journaling must be digest- and cost-neutral.
JOURNAL_MODES = ("off", "on")


# --------------------------------------------------------------------- #
# the matrix
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class MatrixSpec:
    """Which dimensions of the conformance matrix to run, and how."""

    cache_modes: Sequence[str] = CACHE_MODES
    fault_modes: Sequence[str] = FAULT_MODES
    worker_counts: Sequence[int] = (1, 4)
    exec_modes: Sequence[str] = EXEC_MODES
    #: per-attempt transient failure probability (absorbed by retries)
    transient_rate: float = 0.25
    #: per-attempt failure probability for the retries-exhausted schedule
    exhausted_rate: float = 0.999999999
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=8, backoff_seconds=0.01)
    )
    #: fraction of pages silently touched for ``cross_query_stale``
    stale_fraction: float = 0.5
    #: keep only the N cheapest candidate plans (None: the full space)
    max_plans: Optional[int] = None
    cache_capacity: int = 4096
    #: tracer attached to every measured run: ``off`` (none), ``noop`` (the
    #: shared null tracer), or ``recording`` (a fresh RecordingTracer per
    #: cell, its rendering attached to any violation the cell produces)
    trace: str = "off"
    #: event journal attached to every measured run: ``off`` or ``on`` (a
    #: fresh :class:`~repro.obs.journal.Journal` per cell, request id =
    #: cell id) — answers and page counts must be identical in both modes
    journal: str = "off"

    def __post_init__(self) -> None:
        for label, values, allowed in (
            ("cache", self.cache_modes, CACHE_MODES),
            ("fault", self.fault_modes, FAULT_MODES),
            ("exec", self.exec_modes, EXEC_MODES),
            ("trace", (self.trace,), TRACE_MODES),
            ("journal", (self.journal,), JOURNAL_MODES),
        ):
            for value in values:
                if value not in allowed:
                    raise ValueError(
                        f"unknown {label} mode {value!r} "
                        f"(choose from {', '.join(allowed)})"
                    )
        if any(w < 1 for w in self.worker_counts):
            raise ValueError("worker counts must be >= 1")


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
        """Inverse of :attr:`cell_id` (used by ``--cell`` reproduction):
        5 parts (exec mode ``staged``) or 6."""
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
        return cls(parts[0], int(parts[1][1:]), parts[2], parts[3],
                   int(parts[4][1:]), exec_mode)


@dataclass
class _Reference:
    """Serial, uncached, fault-free execution of one plan."""

    digest: str
    rows: int
    cost: CostSummary
    urls: frozenset


@dataclass
class Run:
    """One measured run of a cell, as the laws read it."""

    #: the run's log delta (a server cell's: navigator + query, merged)
    delta: AccessLog
    #: pages parsed during the run (:func:`counted_wraps`)
    wraps: int
    reference: _Reference
    #: pages the ``cross_query_stale`` perturbation touched
    touched: frozenset
    result: Any = None
    error: Optional[RetriesExhaustedError] = None
    #: a server cell's two logs: the query's own and its navigator's
    query_log: Optional[AccessLog] = None
    nav_log: Optional[AccessLog] = None


# --------------------------------------------------------------------- #
# the laws
# --------------------------------------------------------------------- #

#: How a law's measured value must relate to its expected one: the
#: relation a static cell holds, then the one an adaptive cell holds.  An
#: adaptive cell may skip an access proven irrelevant (docs/ADAPTIVE.md),
#: so a cost against the reference holds one-sided there
#: (``pages_adaptive ≤ pages_staged``); a ``static-only`` law is not
#: checked in adaptive cells at all.
RELATIONS = {
    "exact": ("==", "≤"),
    "set": ("==", "⊆"),
    "≥": ("≥", "≥"),
    "static-only": ("==", None),
    "always": ("==", "=="),
}


def _same(measured, expected) -> bool:
    # wall time is compared up to float accumulation error: log deltas
    # subtract running sums
    if isinstance(measured, float):
        return math.isclose(measured, expected, rel_tol=1e-9, abs_tol=1e-9)
    return measured == expected


_HOLDS = {"==": _same, "≤": operator.le, "⊆": operator.le, "≥": operator.ge}


@dataclass(frozen=True)
class Cells:
    """The cells a law applies to: a cell matches when each of its
    dimensions is among the allowed values (``workers=None``: any)."""

    cache: tuple = CACHE_MODES
    fault: tuple = FAULT_MODES
    workers: Optional[int] = None
    exec: tuple = EXEC_MODES

    def __contains__(self, cell: Cell) -> bool:
        return (
            cell.cache_mode in self.cache
            and cell.fault_mode in self.fault
            and self.workers in (None, cell.workers)
            and cell.exec_mode in self.exec
        )


@dataclass(frozen=True)
class Law:
    """One cost law: ``measured(run) <relation> expected(run)`` in every
    cell of ``cells``."""

    name: str
    cells: Cells
    measured: Callable[[Run], Any]
    expected: Callable[[Run], Any]
    relation: str = "exact"


_at = operator.attrgetter
_COLD = Cells(cache=("off", "per_query", "cross_query_cold"))
_SERVER = Cells(exec=("server",))
_WARM = Cells(cache=("cross_query_warm",))
_STALE = Cells(cache=("cross_query_stale",))
_SERIAL = Cells(cache=("off",), fault=("none",), workers=1)
_SERIAL_COUNTERS = ("pages", "light_connections", "bytes", "attempts",
                    "cache_hits", "revalidations", "pages_saved")


def _stale(run: Run) -> int:
    """Reference pages the stale perturbation touched."""
    return len(run.touched & run.reference.urls)


#: Every cost law of a successful cell, in the order they are checked.
#: A cold or scoped-out cache cannot help, so a cold cell downloads the
#: reference's pages at every worker count, and the serial uncached
#: fault-free cell *is* the reference execution.  A warm cache downloads
#: nothing, revalidates the reference pages and parses none.  A stale one
#: re-downloads and parses exactly the touched pages the plan needs.  A
#: server cell's navigator and query partition the reference pages, with
#: ``pages_shared`` marking the hand-off.
LAWS = (
    Law("cold pages", _COLD, _at("delta.page_downloads"),
        _at("reference.cost.pages")),
    Law("cold bytes", _COLD, _at("delta.bytes_downloaded"),
        _at("reference.cost.bytes")),
    Law("cold (hits, revalidations)", _COLD,
        _at("delta.cache_hits", "delta.revalidations"),
        lambda run: (0, 0), "always"),
    Law("cold downloaded URLs", _COLD,
        lambda run: set(run.delta.downloaded_urls),
        lambda run: set(run.reference.urls), "set"),
    Law("cold attempts without faults", replace(_COLD, fault=("none",)),
        _at("delta.attempts"), _at("reference.cost.attempts")),
    Law("serial counters", _SERIAL,
        _at(*(f"delta.cost.{name}" for name in _SERIAL_COUNTERS)),
        _at(*(f"reference.cost.{name}" for name in _SERIAL_COUNTERS)),
        "static-only"),
    Law("serial wall time", _SERIAL, _at("delta.cost.simulated_seconds"),
        _at("reference.cost.simulated_seconds"), "static-only"),
    Law("cold attempts cover downloads under faults",
        replace(_COLD, fault=("transient", "exhausted")),
        _at("delta.attempts"), _at("delta.page_downloads"), "≥"),
    Law("warm downloads", _WARM, _at("delta.page_downloads"),
        lambda run: 0, "always"),
    Law("warm revalidations", _WARM, _at("delta.revalidations"),
        _at("reference.cost.pages")),
    Law("warm pages_saved", _WARM, _at("delta.pages_saved"),
        _at("reference.cost.pages")),
    Law("warm parses", _WARM, _at("wraps"), lambda run: 0, "always"),
    Law("stale downloads = touched pages", _STALE,
        _at("delta.page_downloads"), _stale),
    Law("stale revalidations = untouched pages", _STALE,
        _at("delta.revalidations"),
        lambda run: int(run.reference.cost.pages) - _stale(run)),
    Law("stale light connections", _STALE, _at("delta.light_connections"),
        _at("reference.cost.pages")),
    Law("stale downloads + pages_saved", _STALE,
        lambda run: run.delta.page_downloads + run.delta.pages_saved,
        _at("reference.cost.pages")),
    Law("stale parses = downloads", _STALE, _at("wraps"),
        _at("delta.page_downloads"), "always"),
    Law("sharing own + revalidated + shared = reference pages", _SERVER,
        lambda run: (run.query_log.page_downloads + run.query_log.revalidations
                     + run.query_log.pages_shared),
        _at("reference.cost.pages"), "always"),
    Law("sharing navigator pages = pages credited", _SERVER,
        lambda run: run.nav_log.page_downloads + run.nav_log.revalidations,
        _at("query_log.pages_shared"), "always"),
    Law("sharing entry-point prefix", _SERVER,
        _at("query_log.pages_shared"), lambda run: 1, "≥"),
)


def check_laws(cell: Cell, run: Run) -> list[str]:
    """The violations of every row of :data:`LAWS` that applies to
    ``cell``, in table order; each names its law and gives both values."""
    adaptive = cell.exec_mode == "adaptive"
    problems = []
    for law in LAWS:
        static, relaxed = RELATIONS[law.relation]
        relation = relaxed if adaptive else static
        if relation is None or cell not in law.cells:
            continue
        measured, expected = law.measured(run), law.expected(run)
        if not _HOLDS[relation](measured, expected):
            problems.append(
                f"{law.name}: {_show(measured)}, want {relation} "
                f"{_show(expected)}"
            )
    return problems


def _show(value) -> str:
    return repr(sorted(value)) if isinstance(value, set) else repr(value)


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
        spec = self.spec
        return [
            Cell(query_id, plan_index, *point)
            for query_id in sorted(self.queries)
            for plan_index in range(len(self.plans(query_id)))
            for point in itertools.product(
                spec.cache_modes, spec.fault_modes, spec.worker_counts, spec.exec_modes
            )
        ]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self, shard_index: int = 0, shard_count: int = 1) -> ConformanceReport:
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
            ok=True,
            plan_text=plan.render(scheme=env.scheme),
            **asdict(cell),
        )
        violations: list[str] = []

        # -- cache setup (plus prewarm / stale perturbation) ------------ #
        cache = self._make_cache(cell.cache_mode)
        touched: frozenset = frozenset()
        if cell.cache_mode in ("cross_query_warm", "cross_query_stale"):
            server.fault_policy = None
            prewarm = env.executor.execute(
                plan.expr,
                options=QueryOptions(cache=cache, fetch=FetchConfig(max_workers=1)),
            )
            if relation_digest(prewarm.relation) != reference.digest:
                violations.append(
                    "prewarm run disagrees with the uncached reference"
                )
            if cell.cache_mode == "cross_query_stale":
                touched = frozenset(perturb_server(
                    server, seed=self._cell_seed(cell),
                    fraction=self.spec.stale_fraction,
                ))

        # -- fault schedule --------------------------------------------- #
        fault = self._make_fault(cell.fault_mode)
        expected_failure = self._expect_failure(cell, reference, touched)

        # -- the measured run ------------------------------------------- #
        tracer = self._make_tracer()
        server.fault_policy = fault
        run = self._measure(
            cell,
            plan,
            QueryOptions(
                cache=cache,
                fetch=FetchConfig(max_workers=cell.workers),
                retry=self.spec.retry,
                tracer=tracer,
                journal=self._make_journal(cell),
            ),
            reference,
            touched,
        )

        # -- invariants -------------------------------------------------- #
        delta = run.delta
        violations.extend(delta.reconcile())
        cost = delta.cost
        for name in (f.name for f in fields(CostSummary)):
            setattr(record, name, getattr(cost, name))

        if run.error is not None:
            record.expected_failure = True
            if not expected_failure and not self._doomed(fault, run.error):
                record.expected_failure = False
                violations.append(
                    f"unexpected retries-exhausted abort on {run.error.url!r}"
                )
            if delta.page_downloads != 0:
                violations.append(
                    f"{delta.page_downloads} downloads succeeded under an "
                    "exhausted fault schedule"
                )
        elif expected_failure and not (
            # an adaptive cell may survive an exhausted schedule by pruning
            # the very fetch that would have aborted — but only if it
            # touched the network zero times
            cell.exec_mode == "adaptive" and delta.page_downloads == 0
        ):
            violations.append(
                "expected a retries-exhausted abort, but the query succeeded"
            )
        else:
            record.rows = len(run.result.relation)
            record.relation_digest = relation_digest(run.result.relation)
            if record.relation_digest != baseline.digest:
                violations.append(
                    f"relation mismatch: {record.rows} rows, digest "
                    f"{record.relation_digest} != baseline {baseline.digest} "
                    f"({baseline.rows} rows)"
                )
            if not expected_failure:
                violations.extend(check_laws(cell, run))

        record.violations = violations
        record.ok = not violations
        if isinstance(tracer, RecordingTracer):
            record.trace_spans = len(tracer.spans())
            if violations:
                # every conformance violation ships with its trace: the
                # cell id reproduces the run, the excerpt explains it
                record.trace_excerpt = tracer.render(max_events=4, max_lines=80)
        return record

    def _measure(
        self,
        cell: Cell,
        plan,
        options: QueryOptions,
        reference: _Reference,
        touched: frozenset,
    ) -> Run:
        """The cell's measured run; removes the fault policy on exit.

        A ``server`` cell runs the server's request core single-threaded:
        a fresh navigator resolves the plan's navigation prefixes on its
        own client, the query runs on a clone with those pages injected.
        Its laws read the merged and the split logs."""
        env = self.env
        result = error = navigator = None
        client = env.client
        if cell.exec_mode == "server":
            navigator, client = self._make_server(env)
        before = client.log.snapshot()
        try:
            with counted_wraps(env.registry) as wraps:
                if navigator is not None:
                    result = execute_shared(
                        env, plan.expr, options, navigator=navigator,
                        client=client, request_id=cell.cell_id,
                    ).result
                else:
                    result = env.executor.execute(
                        plan.expr,
                        options=replace(options, execution=cell.exec_mode),
                        request_id=cell.cell_id,
                    )
        except RetriesExhaustedError as err:
            error = err.with_traceback(None)
        finally:
            env.site.server.fault_policy = None
        own = client.log.delta(before)
        if navigator is None:
            return Run(own, len(wraps), reference, touched, result, error)
        # the clone is private: on an abort its whole log is the query's
        query_log = own if result is None else result.log
        return Run(navigator.log.merge(query_log), len(wraps), reference,
                   touched, result, error, query_log, navigator.log)

    # ------------------------------------------------------------------ #
    # per-cell machinery
    # ------------------------------------------------------------------ #

    def _make_tracer(self):
        if self.spec.trace == "recording":
            return RecordingTracer()
        return NULL_TRACER if self.spec.trace == "noop" else None

    def _make_journal(self, cell: Cell) -> Optional[Journal]:
        """A fresh per-cell journal (``journal="on"``), its request block
        opened under the cell id with the site name and the query's SQL
        (enough to replay), kept on ``last_journal``."""
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
        navigator = SharedNavigator(env.scheme, env.client, env.registry)
        clone = WebClient(
            env.client.server, env.client.network, env.client.retry_policy
        )
        return navigator, clone

    def _make_cache(self, cache_mode: str) -> PageCache:
        if cache_mode == "off":
            return NO_CACHE
        per_query = cache_mode == "per_query"
        policy = CachePolicy.PER_QUERY if per_query else CachePolicy.CROSS_QUERY
        return PageCache(capacity=self.spec.cache_capacity, policy=policy)

    def _make_fault(self, fault_mode: str) -> Optional[FaultPolicy]:
        if fault_mode == "none":
            return None
        spec = self.spec
        rate = spec.transient_rate if fault_mode == "transient" else spec.exhausted_rate
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
        if cell.fault_mode != "exhausted" or cell.cache_mode == "cross_query_warm":
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
