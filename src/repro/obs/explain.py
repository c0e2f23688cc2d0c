"""The one plan-printing code path: EXPLAIN and EXPLAIN ANALYZE.

Every plan rendering with numbers on it goes through :func:`plan_report`,
which walks a plan once and produces one :class:`NodeReport` per operator:
the tree-drawing prefix, the operator label, the cost model's estimates
(cardinality, C(E), the node's *own* page cost), and — when the plan was
executed under a :class:`~repro.obs.trace.RecordingTracer` — the measured
span (pages, tuples out, simulated seconds).

Two formatters consume the reports:

* :func:`render_cost_explain` — the indented estimate breakdown
  historically produced by ``CostModel.explain`` (which now delegates
  here);
* :func:`render_annotated_tree` — the Figures 2–4-style ASCII tree with
  estimated and, under ``EXPLAIN ANALYZE``, measured columns side by
  side.  Measured *own* pages are counter deltas (node minus children),
  so the column sums exactly to the run's ``CostSummary.pages``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algebra.ast import (
    EntryPointScan,
    Expr,
    ExternalRelScan,
    FollowLink,
    Join,
    Project,
    Select,
    Unnest,
)
from repro.errors import AlgebraError
from repro.obs.trace import Span
from repro.optimizer.memo import PlanMemo

__all__ = [
    "NodeReport",
    "plan_report",
    "render_cost_explain",
    "render_annotated_tree",
]


@dataclass
class NodeReport:
    """One plan operator with its estimated (and measured) numbers."""

    node: Expr
    depth: int
    prefix: str                #: tree-drawing prefix ("│   └── " etc.)
    label: str                 #: legacy estimate label ("Follow <attr>")
    tree_label: str            #: plan-tree label ("→ <attr>  (to <P>)")
    est_card: float
    est_cost: float
    est_own: float             #: this node's own estimated page cost
    span: Optional[Span] = None  #: measured operator span, when analyzed

    @property
    def measured_pages(self) -> Optional[int]:
        if self.span is None:
            return None
        return self.span.attrs.get("pages")

    @property
    def measured_own(self) -> Optional[int]:
        """Own measured pages: this span's delta minus its children's."""
        if self.span is None:
            return None
        total = self.span.attrs.get("pages", 0)
        children = sum(
            c.attrs.get("pages", 0)
            for c in self.span.children
            if c.kind == "operator"
        )
        return total - children

    @property
    def measured_tuples(self) -> Optional[int]:
        if self.span is None:
            return None
        return self.span.attrs.get("tuples_out")

    @property
    def measured_seconds(self) -> Optional[float]:
        if self.span is None:
            return None
        return self.span.attrs.get("seconds")

    @property
    def q_error(self) -> Optional[float]:
        """Cardinality q-error, ``max(est/actual, actual/est)`` with both
        sides clamped to >= 1 (None until the node was measured).  The
        calibration report aggregates exactly this statistic."""
        tuples = self.measured_tuples
        if tuples is None:
            return None
        from repro.obs.progress import qerror

        return qerror(self.est_card, tuples)


def _estimate_label(node: Expr) -> str:
    label = type(node).__name__
    if isinstance(node, EntryPointScan):
        label = f"EntryPoint {node.name}"
    elif isinstance(node, FollowLink):
        label = f"Follow {node.link_attr}"
    elif isinstance(node, Unnest):
        label = f"Unnest {node.attr}"
    return label


def _tree_label(node: Expr, scheme=None) -> str:
    if isinstance(node, EntryPointScan):
        return f"{node.name}  [entry point]"
    if isinstance(node, ExternalRelScan):
        return f"{node.name}  [external relation]"
    if isinstance(node, Select):
        return f"σ {node.predicate}"
    if isinstance(node, Project):
        cols = ", ".join(
            o if o == i else f"{i} as {o}" for o, i in node.outputs
        )
        return f"π {cols}"
    if isinstance(node, Join):
        cond = ", ".join(f"{lhs}={rhs}" for lhs, rhs in node.on)
        return f"⋈ {cond}"
    if isinstance(node, Unnest):
        return f"∘ {node.attr}"
    if isinstance(node, FollowLink):
        target = node.alias
        if scheme is not None:
            target = node.target_alias(scheme)
        return f"→ {node.link_attr}  (to {target or '?'})"
    raise AlgebraError(f"cannot render {type(node).__name__}")


def plan_report(
    expr: Expr,
    cost_model,
    scheme=None,
    spans: Optional[dict[int, Span]] = None,
) -> list[NodeReport]:
    """Walk ``expr`` depth-first and report every operator once.

    ``cost_model`` supplies the estimates (one
    :class:`~repro.optimizer.memo.PlanMemo` for the whole report, so each
    operator is estimated once); ``spans`` (from
    :func:`~repro.obs.trace.spans_by_node`) attaches measured operator
    spans by the stable preorder ``node_id`` every executor stamps on its
    spans.  This walk *is* preorder (parent appended before children,
    children in ``children()`` order), so a node's report index is its
    ``node_id`` — the pairing is positional, immune to the ``id()``
    collisions that shared or GC'd subtrees used to cause.
    """
    reports: list[NodeReport] = []
    memo = PlanMemo(cost_model.scheme)

    def go(node: Expr, depth: int, prefix: str, is_last: bool, is_root: bool):
        connector = "" if is_root else ("└── " if is_last else "├── ")
        estimate = cost_model.estimate(node, memo)
        est_own = estimate.cost - sum(
            cost_model.estimate(c, memo).cost for c in node.children()
        )
        node_id = len(reports)  # preorder position == span node_id
        reports.append(
            NodeReport(
                node=node,
                depth=depth,
                prefix=prefix + connector,
                label=_estimate_label(node),
                tree_label=_tree_label(node, scheme),
                est_card=estimate.cardinality,
                est_cost=estimate.cost,
                est_own=est_own,
                span=spans.get(node_id) if spans else None,
            )
        )
        child_prefix = (
            prefix if is_root else prefix + ("    " if is_last else "│   ")
        )
        kids = node.children()
        for i, child in enumerate(kids):
            go(child, depth + 1, child_prefix, i == len(kids) - 1, False)

    go(expr, 0, "", True, True)
    return reports


def render_cost_explain(expr: Expr, cost_model) -> str:
    """Indented per-node estimate breakdown (``CostModel.explain``)."""
    lines = [
        f"{'  ' * r.depth}{r.label}: card={r.est_card:.2f} "
        f"cost={r.est_cost:.2f} (+{r.est_own:.2f})"
        for r in plan_report(expr, cost_model)
    ]
    return "\n".join(lines)


def render_annotated_tree(
    expr: Expr,
    cost_model,
    scheme=None,
    spans: Optional[dict[int, Span]] = None,
) -> str:
    """ASCII plan tree with aligned estimate (and measured) columns.

    Without ``spans`` this is EXPLAIN: each operator shows its estimated
    cardinality and own page cost.  With ``spans`` it is EXPLAIN ANALYZE:
    a measured column — own pages actually downloaded, tuples produced,
    simulated seconds — appears beside every estimate, and the own-page
    column sums exactly to the run's total page count."""
    reports = plan_report(expr, cost_model, scheme=scheme, spans=spans)
    width = max(len(r.prefix + r.tree_label) for r in reports) + 2
    lines = []
    for r in reports:
        left = (r.prefix + r.tree_label).ljust(width)
        est = f"est: {r.est_own:6.2f} pages, card {r.est_card:8.2f}"
        if r.span is not None:
            meas = (
                f"  measured: {r.measured_own:4d} pages, "
                f"{r.measured_tuples:5d} tuples, "
                f"{r.measured_seconds:7.2f}s, "
                f"q-err {r.q_error:6.2f}"
            )
        elif spans is not None:
            meas = "  measured: (not evaluated)"
        else:
            meas = ""
        lines.append(f"{left}{est}{meas}")
    return "\n".join(lines)
