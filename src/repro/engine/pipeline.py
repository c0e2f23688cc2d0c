"""Pipelined plan evaluation with non-speculative link prefetch.

Staged execution (:class:`~repro.engine.local.LocalExecutor` driven by
:class:`~repro.engine.remote.RemoteExecutor`) treats every operator as a
barrier: a follow-link stage hands *all* its distinct URLs to
:meth:`WebClient.get_batch` as one batch, the batch gets a private
:class:`~repro.clock.Timeline`, and the simulated clock advances by the
batch's makespan before the next operator runs.  At ``k`` parallel
connections the lanes therefore drain at every stage boundary, and the
measured makespan sits far above the ``k``-lane lower bound.

This module removes the barriers without changing a single access:

* operators exchange bounded **chunks** (:class:`_Chunk`) — each a
  :class:`~repro.engine.columnar.ColumnBatch` plus the simulated instant
  its rows became available (``ready``);
* every follow-link stage enqueues one fetch batch per input chunk into
  the query's :class:`PrefetchScheduler` the moment that chunk's source
  tuples are complete, up to a backpressure bound of
  ``max_inflight_batches`` batches ahead of downstream consumption;
* all batches land on one *shared* ``k``-lane
  :class:`~repro.clock.Timeline` (via :class:`~repro.clock.BatchSchedule`),
  where a fetch may start no earlier than its chunk's ``ready`` instant —
  so downstream I/O overlaps the *tail* of upstream I/O exactly as a real
  pipelined client would, and never earlier.

The executor runs the same compiled plan as the staged one
(:func:`~repro.engine.compile.compile_plan`: every stage's schema, stable
preorder ``node_id`` and column offsets pinned once per scheme) and
transforms each chunk with the same whole-column kernels
(:mod:`repro.engine.columnar`); only the scheduling differs.

**The non-speculation invariant.**  Only URLs the serial plan provably
fetches are ever enqueued: a follow stage reads link values off actual
child tuples (never guesses), chunk concatenation preserves the staged
row order, and the per-query :class:`~repro.engine.session.QuerySession`
dedups across batches.  Consequently ``CostSummary.pages``, the
``AccessLog`` records, cache hits/revalidations, and the result relation
are bit-for-bit identical to staged execution — only
``simulated_seconds`` (the makespan) changes, and at any configuration
with at least two in-flight batches of lookahead (the default has four)
it only ever drops (see :class:`PipelineConfig` for the one-batch
caveat).  The QA differential oracle's ``exec`` dimension
(:mod:`repro.qa.oracle`) enforces this equivalence across every
cache/fault/worker cell.

With one connection (``k = 1``) there is nothing to overlap, so the
executor degenerates to exact staged behaviour: a single chunk per
operator and the client's serial per-batch accounting, giving bit-for-bit
equality *including* float-exact ``simulated_seconds``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.adm.scheme import WebScheme
from repro.algebra.ast import Expr
from repro.clock import BatchSchedule, Timeline
from repro.engine.columnar import ColumnBatch, distinct_links
from repro.engine.compile import (
    CompiledNode,
    CompiledPlan,
    apply_follow,
    apply_join,
    apply_project,
    apply_select,
    apply_unnest,
    compile_plan,
)
from repro.engine.session import QuerySession
from repro.errors import AlgebraError, ExecutionModeError
from repro.nested.relation import Relation
from repro.obs.progress import ProgressTracer
from repro.obs.trace import NULL_TRACER
from repro.web.client import AccessLog

__all__ = [
    "EXECUTION_MODES",
    "coerce_execution",
    "PipelineConfig",
    "PrefetchScheduler",
    "PipelinedExecutor",
]

#: The values of ``QueryOptions.execution`` — the one list every other
#: module and document links to.  All three run the one compiled executor
#: core (:mod:`repro.engine.compile`) and give the same answer; they differ
#: in how fetches are scheduled and decided (docs/ENGINE.md):
#:
#: * ``staged`` (the default) — every operator is a barrier, one fetch
#:   batch per follow-link operator
#:   (:class:`~repro.engine.local.LocalExecutor`);
#: * ``pipelined`` — bounded chunks with non-speculative link prefetch on
#:   one shared timeline: the same pages, a lower simulated makespan
#:   (:class:`PipelinedExecutor`, docs/PIPELINE.md);
#: * ``adaptive`` — staged, plus runtime relevance pruning and mid-query
#:   pointer-join ↔ pointer-chase switching: never more pages
#:   (:class:`~repro.engine.adaptive.AdaptiveExecutor`, docs/ADAPTIVE.md).
EXECUTION_MODES = ("staged", "pipelined", "adaptive")


def coerce_execution(execution: str) -> str:
    """Validate an ``execution=`` argument; returns the canonical mode.

    Raises :class:`~repro.errors.ExecutionModeError` (a typed
    ``ValueError``) for anything not in :data:`EXECUTION_MODES` — an
    unknown mode must never silently fall back to staged execution.
    """
    if isinstance(execution, str):
        mode = execution.strip().lower()
        if mode in EXECUTION_MODES:
            return mode
    raise ExecutionModeError(
        f"unknown execution mode {execution!r} "
        f"(choose from {', '.join(EXECUTION_MODES)})"
    )


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs for pipelined execution.

    ``chunk_size`` bounds how many tuples one chunk carries between
    operators (smaller chunks → finer-grained overlap, more batches);
    ``max_inflight_batches`` is the backpressure bound: a follow stage
    never holds more than this many submitted-but-unconsumed batches.
    Neither knob can change an answer or a page count — only the shape of
    the shared timeline.

    A bound of one disables lookahead entirely: each stage alternates
    strictly with its consumer, and on chain plans the greedy lane
    placement can then exceed the staged makespan by a few percent (a
    committed downstream placement blocks the upstream critical path —
    the classic list-scheduling anomaly).  From two in-flight batches up,
    upstream placement leads downstream and the pipelined makespan never
    exceeded staged anywhere in the QA matrix; the default keeps a
    comfortable margin.
    """

    chunk_size: int = 8
    max_inflight_batches: int = 4

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.max_inflight_batches < 1:
            raise ValueError(
                "max_inflight_batches must be >= 1, got "
                f"{self.max_inflight_batches}"
            )


DEFAULT_PIPELINE_CONFIG = PipelineConfig()


class PrefetchScheduler:
    """Owns the query-scoped shared timeline and the in-flight accounting.

    One scheduler is created per pipelined query.  Follow stages call
    :meth:`open_batch` to place a fetch batch on the shared ``k``-lane
    timeline no earlier than its chunk's ``ready`` instant, and report
    issue/consume transitions so the backpressure bound is observable
    (``peak_inflight``).  :meth:`finalize` charges the timeline's makespan
    to the access log exactly once — *after* the plan has drained, which
    is what lets batch ``n+1`` overlap batch ``n`` instead of being
    serialized behind it.

    At ``lanes == 1`` the scheduler is inert (:attr:`pipelining` is
    False): batches run unscheduled through the client's serial staged
    accounting, reproducing staged execution bit-for-bit.
    """

    def __init__(self, log: AccessLog, lanes: int, tracer=None):
        if lanes < 1:
            raise ValueError(f"lane count must be >= 1, got {lanes}")
        self.log = log
        self.lanes = lanes
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.timeline: Optional[Timeline] = (
            Timeline(lanes) if lanes > 1 else None
        )
        #: absolute simulated seconds at the shared timeline's origin
        self.base = log.simulated_seconds
        self.batches = 0
        self.inflight = 0
        self.peak_inflight = 0
        self._finalized = False

    @property
    def pipelining(self) -> bool:
        """Whether batches actually share a timeline (``lanes > 1``)."""
        return self.timeline is not None

    def open_batch(self, ready: float) -> Optional[BatchSchedule]:
        """A placement carrier for one fetch batch whose inputs exist from
        simulated instant ``ready`` on — or None when not pipelining (the
        batch then uses the client's staged accounting)."""
        if self.timeline is None:
            return None
        self.batches += 1
        return BatchSchedule(
            timeline=self.timeline,
            ready=ready,
            base=self.base,
            completed=ready,
        )

    def note_issued(self) -> None:
        """One batch submitted ahead of downstream consumption."""
        self.inflight += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)

    def note_consumed(self) -> None:
        """The oldest in-flight batch was consumed downstream."""
        self.inflight -= 1

    @property
    def makespan(self) -> float:
        """Simulated wall time of everything scheduled so far."""
        return self.timeline.makespan if self.timeline is not None else 0.0

    def finalize(self) -> float:
        """Charge the shared makespan to the log (idempotent); returns the
        seconds charged.  Called when the plan drains — including on an
        abort, so partially scheduled work still shows up in the log, as
        it does under staged execution."""
        if self._finalized or self.timeline is None:
            return 0.0
        self._finalized = True
        span = self.timeline.makespan
        with self.log._lock:
            self.log.simulated_seconds += span
        return span


@dataclass
class _Chunk:
    """A bounded batch of tuples plus the simulated instant they exist.

    ``ready`` is timeline-relative: the completion time of the last fetch
    that produced (or was needed to produce) these rows.  Purely local
    operators (unnest, select, project, join) are free in the paper's
    cost model, so they forward ``ready`` unchanged.
    """

    batch: ColumnBatch
    ready: float


class PipelinedExecutor:
    """Evaluates computable NALG plans as a pipeline of column chunks.

    Drop-in alternative to :class:`~repro.engine.local.LocalExecutor` for
    the remote (live-web) path: same answers, same page accounting, lower
    makespan.  See the module docstring for the invariants.

    ``tracer`` gains per-chunk *pipeline spans* (``kind="pipeline"``) on
    the stages that touch the network, carrying the simulated interval
    from inputs-ready (``t0``) to chunk-complete (``t1``) — the Perfetto
    exporter renders these as a dedicated "pipeline stages" track so
    stage overlap is visible next to the per-lane fetch intervals.  Span
    ``node_id``\\ s are the compiled plan's stable preorder numbers, the
    same numbering the EXPLAIN ANALYZE renderer uses.  A
    :class:`~repro.obs.progress.ProgressTracer` also hears each operator
    start when its stream is first pulled and finish when the stream
    ends, with the stream's rows and pages (:meth:`_watched`); its chunk
    spans go to the tracer it wraps.
    """

    def __init__(
        self,
        scheme: WebScheme,
        session: QuerySession,
        scheduler: PrefetchScheduler,
        config: PipelineConfig = DEFAULT_PIPELINE_CONFIG,
        tracer=None,
    ):
        self.scheme = scheme
        self.session = session
        self.scheduler = scheduler
        self.config = config
        tracer = tracer if tracer is not None else NULL_TRACER
        self.progress = tracer if isinstance(tracer, ProgressTracer) else None
        self.tracer = tracer if self.progress is None else tracer.inner

    @property
    def chunk_size(self) -> Optional[int]:
        """Rows per chunk, or None for unbounded (the k=1 degeneration:
        one chunk per operator reproduces staged batches exactly)."""
        return self.config.chunk_size if self.scheduler.pipelining else None

    def evaluate(self, expr: Expr) -> Relation:
        """Evaluate ``expr``; raises NotComputableError for bad plans."""
        return self.run(compile_plan(expr, self.scheme))

    def run(self, plan: CompiledPlan) -> Relation:
        """Evaluate an already compiled plan."""
        batches: list[ColumnBatch] = []
        try:
            for chunk in self._chunks(plan.root):
                batches.append(chunk.batch)
        finally:
            # drained or aborted: charge the shared makespan exactly once
            self.scheduler.finalize()
        return ColumnBatch.concat(plan.root.schema, batches).to_relation()

    # ------------------------------------------------------------------ #
    # chunk streams, one generator per operator kind
    # ------------------------------------------------------------------ #

    def _chunks(self, node: CompiledNode) -> Iterator[_Chunk]:
        stream = self._stream(node)
        return stream if self.progress is None else self._watched(node, stream)

    def _watched(
        self, node: CompiledNode, stream: Iterator[_Chunk]
    ) -> Iterator[_Chunk]:
        """``stream`` reported to the progress board: its rows summed, and
        the pages fetched while it ran — its children's included, as a
        staged operator span counts them, but not what its consumer
        fetched between its chunks."""
        progress, log = self.progress, self.scheduler.log
        assert progress is not None
        progress.operator_started(node.node_id)
        rows = pages = 0
        while True:
            before = log.page_downloads
            chunk = next(stream, None)
            pages += log.page_downloads - before
            if chunk is None:
                break
            rows += chunk.batch.num_rows
            yield chunk
        progress.operator_finished(
            node.node_id, op=node.op, tuples=rows, pages=pages
        )

    def _stream(self, node: CompiledNode) -> Iterator[_Chunk]:
        if node.kind == "entry":
            return self._entry_chunks(node)
        if node.kind == "follow":
            return self._follow_chunks(node)
        if node.kind == "unnest":
            return self._unnest_chunks(node)
        if node.kind == "select":
            return self._select_chunks(node)
        if node.kind == "project":
            return self._project_chunks(node)
        if node.kind == "join":
            return self._join_chunks(node)
        raise AlgebraError(f"cannot evaluate compiled kind {node.kind!r}")

    def _rechunk(
        self, batch: ColumnBatch, ready: float
    ) -> Iterator[_Chunk]:
        """Split an operator's output back into bounded chunks so the next
        stage can overlap work at chunk granularity.  All pieces carry the
        source ``ready`` — local work is free in simulated time."""
        size = self.chunk_size
        count = batch.num_rows
        if not count or size is None or count <= size:
            yield _Chunk(batch, ready)
            return
        for start in range(0, count, size):
            yield _Chunk(batch.slice(start, start + size), ready)

    def _entry_chunks(self, node: CompiledNode) -> Iterator[_Chunk]:
        assert node.page_scheme is not None and node.build_row is not None
        url = self.scheme.entry_point(node.page_scheme).url
        schedule = self.scheduler.open_batch(ready=0.0)
        self.session.fetch_batch([url], schedule=schedule)
        ready = schedule.completed if schedule is not None else 0.0
        plain = self.session.fetch_tuple(node.page_scheme, url)
        if plain is None:
            batch = ColumnBatch.empty(node.schema)
        else:
            batch = ColumnBatch.from_tuples(
                node.schema, [node.build_row(plain)]
            )
        self._pipeline_span(
            node, 0, ready=0.0, completed=ready,
            rows_in=1, rows_out=batch.num_rows,
        )
        yield _Chunk(batch, ready)

    def _follow_chunks(self, node: CompiledNode) -> Iterator[_Chunk]:
        assert node.target_page_scheme is not None
        build_row = node.build_row
        assert build_row is not None
        child = self._chunks(node.children[0])
        target = node.target_page_scheme
        # distinct link values across the whole operator, first-seen order
        # (chunk concatenation preserves the staged child-row order, so
        # the union over chunks equals the staged URL list exactly)
        seen: set[str] = set()
        #: url → target value tuple
        targets: dict = {}
        bound = self.config.max_inflight_batches
        pending: deque[tuple[_Chunk, float]] = deque()
        state = {"drained": False}

        def submit_next() -> None:
            """Pull one child chunk and place its fetch batch."""
            chunk = next(child, None)
            if chunk is None:
                state["drained"] = True
                return
            urls = [
                url
                for url in distinct_links(chunk.batch.columns[node.link_index])
                if url not in seen
            ]
            seen.update(urls)
            schedule = self.scheduler.open_batch(ready=chunk.ready)
            if urls:
                plain = self.session.fetch_tuples(
                    target, urls, schedule=schedule
                )
                for url, tup in plain.items():
                    targets[url] = build_row(tup)
            completed = (
                schedule.completed if schedule is not None else chunk.ready
            )
            pending.append((chunk, completed))
            self.scheduler.note_issued()

        def top_up() -> None:
            # prefetch: submit batches the moment chunks arrive, up to
            # the backpressure bound ahead of downstream consumption
            while not state["drained"] and len(pending) < bound:
                submit_next()

        index = 0
        while True:
            top_up()
            if not pending:
                return
            chunk, completed = pending.popleft()
            self.scheduler.note_consumed()
            # refill the window *before* yielding: upstream batches must
            # land on the shared timeline ahead of whatever batch the
            # downstream stage derives from this chunk — otherwise, at
            # small bounds, a committed downstream placement can block
            # the upstream critical path and lose to the staged schedule
            top_up()
            batch = apply_follow(node, chunk.batch, targets)
            self._pipeline_span(
                node, index, ready=chunk.ready, completed=completed,
                rows_in=chunk.batch.num_rows, rows_out=batch.num_rows,
            )
            index += 1
            yield _Chunk(batch, completed)

    def _unnest_chunks(self, node: CompiledNode) -> Iterator[_Chunk]:
        for chunk in self._chunks(node.children[0]):
            # re-chunk: unnest multiplies rows, and downstream overlap
            # only exists at chunk granularity
            yield from self._rechunk(
                apply_unnest(node, chunk.batch), chunk.ready
            )

    def _select_chunks(self, node: CompiledNode) -> Iterator[_Chunk]:
        for chunk in self._chunks(node.children[0]):
            yield _Chunk(apply_select(node, chunk.batch), chunk.ready)

    def _project_chunks(self, node: CompiledNode) -> Iterator[_Chunk]:
        # projection is set-based: duplicates are eliminated across the
        # *whole* operator (first occurrence wins, as in the staged path);
        # per-chunk dedup alone would let cross-chunk duplicates through
        # at small chunk sizes
        seen: set = set()
        for chunk in self._chunks(node.children[0]):
            yield _Chunk(apply_project(node, chunk.batch, seen), chunk.ready)

    def _join_chunks(self, node: CompiledNode) -> Iterator[_Chunk]:
        # a join needs both sides in full: it is the one genuine barrier,
        # and materializing in order keeps the staged row order exactly
        left_node, right_node = node.children
        ready = 0.0
        left_batches: list[ColumnBatch] = []
        for chunk in self._chunks(left_node):
            left_batches.append(chunk.batch)
            ready = max(ready, chunk.ready)
        right_batches: list[ColumnBatch] = []
        for chunk in self._chunks(right_node):
            right_batches.append(chunk.batch)
            ready = max(ready, chunk.ready)
        left = ColumnBatch.concat(left_node.schema, left_batches)
        right = ColumnBatch.concat(right_node.schema, right_batches)
        yield from self._rechunk(apply_join(node, left, right), ready)

    # ------------------------------------------------------------------ #

    def _pipeline_span(
        self,
        node: CompiledNode,
        index: int,
        ready: float,
        completed: float,
        rows_in: int,
        rows_out: int,
    ) -> None:
        """Emit one per-chunk pipeline span (observational only)."""
        if not self.tracer.enabled:
            return
        base = self.scheduler.base
        with self.tracer.span(
            f"pipeline {node.span_name}",
            kind="pipeline",
            node_id=node.node_id,
            stage=node.span_name,
            chunk=index,
        ) as span:
            span.set(
                rows_in=rows_in,
                rows_out=rows_out,
                t0=base + ready,
                t1=base + completed,
                queue_seconds=max(0.0, completed - ready),
            )
