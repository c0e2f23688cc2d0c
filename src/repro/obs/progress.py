"""Live query progress: per-operator estimate-vs-actual accounting.

Three pieces, layered from primitive to report:

* :func:`qerror` — the planner-calibration statistic,
  ``max(est/actual, actual/est)`` with both sides clamped to at least 1.
  A q-error of 1 is a perfect estimate; 10 means the cardinality model
  was off by an order of magnitude in *either* direction.
* :class:`ProgressBoard` — a lock-safe registry of in-flight requests
  (a request is forgotten when it resolves; its ticket keeps the final
  snapshot).
  The executor seeds it with the plan's per-operator cardinality
  estimates (:func:`operator_estimates`, computed once per plan and
  cost model) before the first fetch; a :class:`ProgressTracer` wrapped
  around the request's tracer, recording or not, marks operators
  started/finished as their spans open and close — it needs operator
  spans only, never the span tree.  ``progress(request_id)`` returns a
  monotone snapshot: the completion fraction counts finished operators
  fully and started ones half, and operators never un-finish, so the
  fraction is non-decreasing by construction (``tests/test_server.py``
  pins this under a concurrent mixed cohort).
* :func:`calibration_report` — runs a query suite with recording tracers
  and pairs every operator's estimated cardinality with the tuples it
  actually produced, naming which :mod:`repro.stats` estimates drift
  worst (docs/OBSERVABILITY.md explains how to read it).

The board is observational: executors write into it, but nothing in the
query path reads it, so progress tracking rides along with the
non-interference guarantees the tracing layer already proves.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.obs.trace import Span
from repro.optimizer.memo import Table

__all__ = [
    "qerror",
    "OperatorProgress",
    "QueryProgress",
    "ProgressBoard",
    "ProgressTracer",
    "operator_estimates",
    "CalibrationEntry",
    "calibration_entries",
    "calibration_report",
    "render_calibration",
]


def qerror(estimate: float, actual: float) -> float:
    """The q-error of a cardinality estimate: ``max(est/act, act/est)``
    with both sides clamped to at least 1 (so zero-row operators compare
    against 1 instead of dividing by zero).  Symmetric — over- and
    under-estimation are penalized alike — and always >= 1."""
    est = max(float(estimate), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


@dataclass
class OperatorProgress:
    """One operator's live estimate-vs-actual state."""

    node_id: int
    op: str = ""
    est_tuples: float = 0.0
    actual_tuples: float = 0.0
    actual_pages: float = 0.0
    started: bool = False
    done: bool = False

    @property
    def q_error(self) -> Optional[float]:
        return qerror(self.est_tuples, self.actual_tuples) if self.done else None


@dataclass(frozen=True)
class QueryProgress:
    """A point-in-time snapshot of one request's completion state."""

    request_id: str
    total_operators: int
    started_operators: int
    completed_operators: int
    est_tuples: float
    actual_tuples: float
    actual_pages: float
    finished: bool
    operators: tuple = ()

    @property
    def fraction(self) -> float:
        """Completion fraction in [0, 1]: finished operators count fully,
        started-but-unfinished ones half; a finished request is 1.0 even
        if it errored before touching every operator.  Monotone
        non-decreasing over a request's lifetime because operators only
        ever move forward (never un-start, never un-finish)."""
        if self.finished:
            return 1.0
        if self.total_operators <= 0:
            return 0.0
        score = self.completed_operators + 0.5 * (
            self.started_operators - self.completed_operators
        )
        return min(1.0, score / self.total_operators)


class ProgressBoard:
    """Lock-safe per-request operator progress, written by executors and
    read by :meth:`Ticket.progress` / :meth:`QueryServer.status`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queries: dict[str, dict] = {}

    # -- writers (executor side) --------------------------------------- #

    def begin(
        self, request_id: str, estimates: dict[int, dict]
    ) -> None:
        """Register a request with its per-operator estimates (node id ->
        ``{"op": ..., "est_tuples": ...}``).  First registration wins."""
        with self._lock:
            if request_id in self._queries:
                return
            self._queries[request_id] = {
                "finished": False,
                "operators": {
                    node_id: OperatorProgress(
                        node_id=node_id,
                        op=str(info.get("op", "")),
                        est_tuples=float(info.get("est_tuples", 0.0)),
                    )
                    for node_id, info in estimates.items()
                },
            }

    def known(self, request_id: str) -> bool:
        with self._lock:
            return request_id in self._queries

    def operator_started(self, request_id: str, node_id: object) -> None:
        if not isinstance(node_id, int):
            return
        with self._lock:
            entry = self._queries.get(request_id)
            if entry is None:
                return
            operator = entry["operators"].get(node_id)
            if operator is None:
                operator = OperatorProgress(node_id=node_id)
                entry["operators"][node_id] = operator
            operator.started = True

    def operator_finished(
        self,
        request_id: str,
        node_id: object,
        *,
        op: str = "",
        tuples: float = 0.0,
        pages: float = 0.0,
    ) -> None:
        """Mark an operator done and accumulate its actuals.  Adaptive
        re-execution may close the same operator twice; ``done`` is
        sticky and actuals take the latest observation."""
        if not isinstance(node_id, int):
            return
        with self._lock:
            entry = self._queries.get(request_id)
            if entry is None:
                return
            operator = entry["operators"].get(node_id)
            if operator is None:
                operator = OperatorProgress(node_id=node_id)
                entry["operators"][node_id] = operator
            if op:
                operator.op = op
            operator.started = True
            operator.done = True
            operator.actual_tuples = float(tuples)
            operator.actual_pages = float(pages)

    def finish(self, request_id: str) -> None:
        """Mark the whole request finished (fraction pins to 1.0)."""
        with self._lock:
            entry = self._queries.get(request_id)
            if entry is None:
                entry = {"finished": True, "operators": {}}
                self._queries[request_id] = entry
            entry["finished"] = True

    def forget(self, request_id: str) -> None:
        """Stop tracking a request (its owner keeps the last snapshot);
        a board only ever holds the requests still in flight."""
        with self._lock:
            self._queries.pop(request_id, None)

    # -- readers (ticket / server side) -------------------------------- #

    def request_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._queries)

    def progress(self, request_id: str) -> QueryProgress:
        """Snapshot one request (unknown ids report an empty, unfinished,
        fraction-0 progress — a ticket may ask before admission)."""
        with self._lock:
            return self._snapshot(request_id, self._queries.get(request_id))

    def snapshots(self) -> dict[str, QueryProgress]:
        """Every tracked request's progress, all read at one instant."""
        with self._lock:
            return {
                request_id: self._snapshot(request_id, entry)
                for request_id, entry in sorted(self._queries.items())
            }

    @staticmethod
    def _snapshot(request_id: str, entry: Optional[dict]) -> QueryProgress:
        """``entry`` frozen into a :class:`QueryProgress` (lock held)."""
        if entry is None:
            entry = {"finished": False, "operators": {}}
        operators = tuple(
            OperatorProgress(
                node_id=op.node_id,
                op=op.op,
                est_tuples=op.est_tuples,
                actual_tuples=op.actual_tuples,
                actual_pages=op.actual_pages,
                started=op.started,
                done=op.done,
            )
            for _, op in sorted(entry["operators"].items())
        )
        return QueryProgress(
            request_id=request_id,
            total_operators=len(operators),
            started_operators=sum(1 for op in operators if op.started),
            completed_operators=sum(1 for op in operators if op.done),
            est_tuples=sum(op.est_tuples for op in operators),
            actual_tuples=sum(op.actual_tuples for op in operators if op.done),
            actual_pages=sum(op.actual_pages for op in operators if op.done),
            finished=bool(entry["finished"]),
            operators=operators,
        )


class _ProgressSpanContext:
    """Wraps one operator span's context so the board hears the operator
    start and finish with it.  ``inner`` is the recording tracer's
    context, or None: the span is then a bare :class:`Span` nobody keeps,
    there only for the executor to set its actuals on."""

    __slots__ = ("_tracer", "_inner", "_span")

    def __init__(self, tracer: "ProgressTracer", inner, span: Optional[Span]):
        self._tracer = tracer
        self._inner = inner
        self._span = span

    def __enter__(self) -> Span:
        if self._inner is not None:
            self._span = self._inner.__enter__()
        span = self._span
        assert span is not None
        self._tracer.operator_started(span.attrs.get("node_id"))
        return span

    def __exit__(self, exc_type, exc, tb):
        span = self._span
        assert span is not None
        attrs = span.attrs
        self._tracer.operator_finished(
            attrs.get("node_id"),
            op=str(attrs.get("op", "")),
            tuples=float(attrs.get("tuples_out", 0) or 0),
            pages=float(attrs.get("pages", 0) or 0),
        )
        if self._inner is None:
            return False
        return self._inner.__exit__(exc_type, exc, tb)


class ProgressTracer:
    """A tracer decorator that publishes operator lifecycle into a
    :class:`ProgressBoard` and forwards every span and event to ``inner``.

    The board needs operator spans whether or not ``inner`` records, so
    ``enabled`` is always true: an executor opens its operator spans, and
    when ``inner`` records nothing each is a bare :class:`Span` that
    lives only until the operator closes.  Hand the web client ``inner``,
    not this tracer — fetch spans and events feed no board."""

    enabled = True

    def __init__(self, inner, board: ProgressBoard, request_id: str):
        self.inner = inner
        self.board = board
        self.request_id = request_id
        self._records = bool(getattr(inner, "enabled", False))

    def span(self, name: str, kind: str = "", **attrs):
        if kind != "operator":
            return self.inner.span(name, kind=kind, **attrs)
        if self._records:
            inner = self.inner.span(name, kind=kind, **attrs)
            return _ProgressSpanContext(self, inner, None)
        return _ProgressSpanContext(self, None, Span(name, kind, attrs))

    def event(self, name: str, **attrs) -> None:
        self.inner.event(name, **attrs)

    def operator_started(self, node_id: object) -> None:
        self.board.operator_started(self.request_id, node_id)

    def operator_finished(self, node_id: object, **actuals) -> None:
        """``actuals``: :meth:`ProgressBoard.operator_finished`'s."""
        self.board.operator_finished(self.request_id, node_id, **actuals)

    def __getattr__(self, name):
        # Renderers and tests reach through for roots/spans/events/render.
        return getattr(self.inner, name)


#: per-operator estimates kept across requests, like compiled plans
MAX_ESTIMATES = 64
_ESTIMATES = Table(MAX_ESTIMATES)


def operator_estimates(expr, cost_model=None) -> dict[int, dict]:
    """Per-operator estimates for a plan, keyed by the preorder node id
    the tracer stamps on operator spans; computed once per (plan, cost
    model) and shared, so a caller must not change it.  A model is never
    changed either: :meth:`~repro.sites.SiteEnv.refresh_statistics`
    builds a new one, whose estimates are computed afresh.

    With a cost model the estimates come from the EXPLAIN machinery
    (:func:`repro.obs.explain.plan_report`), so the board shows the same
    figures EXPLAIN prints; without one, every operator is listed with a
    zero estimate (progress fractions still work — they count operators,
    not tuples)."""
    return _ESTIMATES.get(_operator_estimates, expr, cost_model, None)


def _operator_estimates(expr, cost_model, _memo: None) -> dict[int, dict]:
    if cost_model is not None:
        from repro.obs.explain import plan_report

        # a report's preorder index IS its node_id (plan_report contract)
        return {
            node_id: {
                "op": type(report.node).__name__,
                "est_tuples": report.est_card,
            }
            for node_id, report in enumerate(plan_report(expr, cost_model))
        }
    estimates: dict[int, dict] = {}

    def go(node) -> None:
        node_id = len(estimates)
        estimates[node_id] = {
            "op": type(node).__name__, "est_tuples": 0.0
        }
        for child in getattr(node, "children", lambda: ())():
            go(child)

    go(expr)
    return estimates


# ---------------------------------------------------------------------- #
# planner calibration
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class CalibrationEntry:
    """One operator's estimate-vs-actual pairing from a measured run."""

    site: str
    query: str
    node_id: int
    op: str
    est_tuples: float
    actual_tuples: float

    @property
    def q_error(self) -> float:
        return qerror(self.est_tuples, self.actual_tuples)


def calibration_entries(
    env, queries: dict, site_name: str = ""
) -> list[CalibrationEntry]:
    """Execute every query in ``queries`` (cache off, recording tracer)
    and pair each operator's estimated cardinality with the tuples it
    actually produced."""
    from repro.obs.explain import plan_report
    from repro.obs.trace import RecordingTracer, spans_by_node
    from repro.options import QueryOptions

    entries: list[CalibrationEntry] = []
    for name, sql in sorted(queries.items()):
        expr = env.plan(sql, cache="off").best.expr
        tracer = RecordingTracer()
        env.execute(
            expr,
            options=QueryOptions(cache="off", tracer=tracer),
        )
        spans = spans_by_node(tracer)
        reports = plan_report(expr, env.cost_model)
        for node_id, report in enumerate(reports):
            span = spans.get(node_id)
            if span is None:
                continue
            entries.append(
                CalibrationEntry(
                    site=site_name,
                    query=name,
                    node_id=node_id,
                    op=type(report.node).__name__,
                    est_tuples=report.est_card,
                    actual_tuples=float(span.attrs.get("tuples_out", 0) or 0),
                )
            )
    return entries


def calibration_report(
    sites: Optional[list[str]] = None, worst: int = 10
) -> dict:
    """Run the calibration suite and aggregate drift per operator kind.

    ``sites`` defaults to the three seed sites plus two fuzzed schemes —
    the acceptance surface the issue names.  Returns a JSON-able report:
    per-site/query/operator entries, per-operator-kind aggregate q-error
    (count / mean / max), and the ``worst`` single estimates ranked by
    q-error — i.e. which :mod:`repro.stats` estimates to distrust."""
    from repro.qa.cli import build_site

    if sites is None:
        sites = ["university", "bibliography", "movies", "fuzz:17", "fuzz:42"]
    entries: list[CalibrationEntry] = []
    for site in sites:
        env, queries = build_site(site)
        entries.extend(calibration_entries(env, queries, site_name=site))

    by_op: dict[str, list[float]] = {}
    for entry in entries:
        by_op.setdefault(entry.op, []).append(entry.q_error)
    aggregates = {
        op: {
            "count": len(errors),
            "mean_q_error": sum(errors) / len(errors),
            "max_q_error": max(errors),
        }
        for op, errors in sorted(by_op.items())
    }
    ranked = sorted(entries, key=lambda e: e.q_error, reverse=True)
    return {
        "sites": list(sites),
        "entries": [
            {
                "site": e.site,
                "query": e.query,
                "node_id": e.node_id,
                "op": e.op,
                "est_tuples": e.est_tuples,
                "actual_tuples": e.actual_tuples,
                "q_error": e.q_error,
            }
            for e in entries
        ],
        "by_operator": aggregates,
        "worst": [
            {
                "site": e.site,
                "query": e.query,
                "node_id": e.node_id,
                "op": e.op,
                "est_tuples": e.est_tuples,
                "actual_tuples": e.actual_tuples,
                "q_error": e.q_error,
            }
            for e in ranked[:worst]
        ],
    }


def render_calibration(report: dict) -> str:
    """Human-readable calibration summary (the CLI prints this)."""
    lines = [
        "planner calibration — q-error = max(est/actual, actual/est)",
        f"sites: {', '.join(report['sites'])}",
        "",
        f"{'operator':<12} {'n':>4} {'mean q':>8} {'max q':>8}",
    ]
    for op, agg in report["by_operator"].items():
        lines.append(
            f"{op:<12} {agg['count']:>4} {agg['mean_q_error']:>8.2f} "
            f"{agg['max_q_error']:>8.2f}"
        )
    lines.append("")
    lines.append("worst estimates:")
    for item in report["worst"]:
        lines.append(
            f"  q={item['q_error']:>7.2f}  {item['site']}/{item['query']} "
            f"node {item['node_id']} ({item['op']}): "
            f"est {item['est_tuples']:.1f} vs actual "
            f"{item['actual_tuples']:.0f}"
        )
    return "\n".join(lines)
