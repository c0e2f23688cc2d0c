"""The row-at-a-time plan interpreter, kept as the executor core's reference.

:class:`ReferenceExecutor` evaluates a computable plan one row dict at a
time through the :class:`~repro.nested.relation.Relation` operators of
:mod:`repro.nested.operations`, with attribute names resolved per tuple.
It is the plainest reading of the algebra's semantics, and it is what
:class:`repro.engine.local.LocalExecutor` — compiled plans over column
batches — must reproduce: same answer, same row order, same provider
calls (hence the same pages and cache counters), same operator spans.
``tests/test_columnar.py`` holds the two against each other.

Same constructor, ``evaluate`` / ``run`` and provider protocol as
``LocalExecutor``; spans carry
the preorder ``node_id`` of the plan node, claimed before the children.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.adm.scheme import WebScheme
from repro.algebra.ast import (
    EntryPointScan,
    Expr,
    FollowLink,
    Join,
    Project,
    Schemas,
    Select,
    Unnest,
    page_relation_schema,
)
from repro.algebra.computable import check_computable
from repro.engine.compile import CompiledPlan
from repro.engine.local import PageRelationProvider, qualify_row
from repro.errors import AlgebraError
from repro.nested.relation import Relation
from repro.obs.trace import NULL_TRACER


class ReferenceExecutor:
    """Row-at-a-time evaluation of computable NALG plans."""

    def __init__(
        self,
        scheme: WebScheme,
        provider: PageRelationProvider,
        tracer=None,
        meter: Optional[Callable[[], tuple]] = None,
    ):
        self.scheme = scheme
        self.schemas = Schemas(scheme)
        self.provider = provider
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.meter = meter
        self._next_node_id = 0

    def evaluate(self, expr: Expr) -> Relation:
        check_computable(expr, self.scheme)
        self._next_node_id = 0
        return self._eval(expr)

    def run(self, plan: CompiledPlan) -> Relation:
        """The compiled plan's expression, interpreted row by row."""
        return self.evaluate(plan.root.expr)

    def _eval(self, expr: Expr) -> Relation:
        if not self.tracer.enabled:
            return self._eval_node(expr)
        # the preorder id is claimed before recursing: parent before
        # children, children in children() order
        node_id = self._next_node_id
        self._next_node_id += 1
        with self.tracer.span(
            _span_name(expr), kind="operator", node_id=node_id,
            op=type(expr).__name__,
        ) as span:
            before = self.meter() if self.meter is not None else None
            relation = self._eval_node(expr)
            if before is not None:
                after = self.meter()
                span.set(
                    pages=after[0] - before[0],
                    light_connections=after[1] - before[1],
                    cache_hits=after[2] - before[2],
                    revalidations=after[3] - before[3],
                    bytes=after[4] - before[4],
                    seconds=after[5] - before[5],
                    t0=before[5],
                    t1=after[5],
                )
            span.set(tuples_out=len(relation.rows))
            return relation

    def _eval_node(self, expr: Expr) -> Relation:
        if isinstance(expr, EntryPointScan):
            schema = self.schemas.of(expr)
            plain = self.provider.entry_tuples([expr.page_scheme]).get(
                expr.page_scheme
            )
            rows = [] if plain is None else [qualify_row(schema, plain)]
            return Relation(schema, rows)
        if isinstance(expr, FollowLink):
            return self._follow_from(expr, self._eval(expr.child))
        if isinstance(expr, Unnest):
            return self._eval(expr.child).unnest(expr.attr)
        if isinstance(expr, Select):
            child = self._eval(expr.child)
            self.schemas.of(expr)  # validates predicate attrs
            return child.select(expr.predicate.evaluate)
        if isinstance(expr, Project):
            child = self._eval(expr.child)
            renames = {i: o for o, i in expr.outputs if o != i}
            return child.project(list(expr.in_names()), renames)
        if isinstance(expr, Join):
            left = self._eval(expr.left)
            right = self._eval(expr.right)
            return left.join(right, expr.on)
        raise AlgebraError(f"cannot evaluate {type(expr).__name__}")

    def _follow_from(self, expr: FollowLink, child: Relation) -> Relation:
        """Fetch the child's distinct links (first-seen order) as one
        batch and merge each row with its target page's row."""
        target = self.schemas.link_type(expr).target
        target_schema = page_relation_schema(
            self.scheme, target, self.schemas.target_alias(expr)
        )
        urls: list[str] = []
        seen: set[str] = set()
        for row in child.rows:
            value = row.get(expr.link_attr)
            if value is not None and value not in seen:
                seen.add(value)
                urls.append(value)
        plain_by_url = self.provider.target_tuples(target, urls)
        qualified = {
            url: qualify_row(target_schema, plain)
            for url, plain in plain_by_url.items()
        }
        rows = []
        for row in child.rows:
            target_row = qualified.get(row.get(expr.link_attr))
            if target_row is not None:  # null or dangling links drop
                rows.append({**row, **target_row})
        return Relation(self.schemas.of(expr), rows)


def _span_name(expr: Expr) -> str:
    if isinstance(expr, EntryPointScan):
        return f"entry {expr.page_scheme}"
    if isinstance(expr, FollowLink):
        return f"follow →{expr.link_attr}"
    if isinstance(expr, Unnest):
        return f"unnest {expr.attr}"
    return type(expr).__name__.lower()
