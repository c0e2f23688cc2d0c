"""Local evaluation of NALG plans: the one executor core.

:class:`LocalExecutor` evaluates a computable plan against page-relations
obtained through a :class:`PageRelationProvider`.  Navigations are
evaluated as joins over URLs — "expression ``P1 →L P2`` is evaluated as
``P1 ⋈_{P1.L = P2.URL} P2``" (paper, Section 8) — with the provider
deciding where the target tuples come from: the live web through a
query session (:mod:`repro.engine.remote`), or the materialized store,
which checks freshness with light connections before handing tuples over
(Algorithm 3, :mod:`repro.materialized.evaluate`).

The plan is compiled once per scheme (:func:`~repro.engine.compile.
compile_plan`) and evaluated over :class:`~repro.engine.columnar.
ColumnBatch` values; the answer relation is built once, at the result
boundary.  The adaptive executor (:mod:`repro.engine.adaptive`) subclasses
this one.

:func:`qualify_row` converts a plain wrapped tuple (attribute-named, as
produced by the wrappers) into the qualified-name form the algebra's
schemas use — the row-at-a-time semantics every compiled ``build_row``
reproduces.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence

from repro.adm.scheme import WebScheme
from repro.algebra.ast import Expr
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
from repro.nested.relation import Relation
from repro.nested.schema import RelationSchema
from repro.obs.trace import NULL_TRACER

__all__ = ["PageRelationProvider", "LocalExecutor", "qualify_row"]


def qualify_row(schema: RelationSchema, plain: dict) -> dict:
    """Re-key a plain wrapped tuple to the qualified names of ``schema``.

    ``schema`` must be a page-relation schema built by
    :func:`repro.algebra.ast.page_relation_schema` (every field carries
    provenance); nested lists are qualified recursively.
    """
    row = {}
    for field in schema:
        assert field.provenance is not None, "page schemas carry provenance"
        leaf = field.provenance.path.leaf
        if field.is_list:
            assert field.elem is not None
            row[field.name] = [
                qualify_row(field.elem, sub) for sub in (plain.get(leaf) or [])
            ]
        else:
            row[field.name] = plain.get(leaf)
    return row


class PageRelationProvider(Protocol):
    """Source of page tuples for local evaluation.

    Both methods take a whole set of pages, so a provider backed by the
    live web can fetch them through one concurrent batch instead of a
    per-URL loop.
    """

    def entry_tuples(
        self, page_schemes: Sequence[str]
    ) -> dict[str, dict]:
        """Plain tuples of the entry-point pages of ``page_schemes``, keyed
        by page-scheme name; schemes whose entry page no longer exists are
        simply absent from the result."""

    def target_tuples(
        self, page_scheme: str, urls: Sequence[str]
    ) -> dict[str, dict]:
        """Plain tuples for the requested target pages, keyed by URL; URLs
        that no longer resolve are simply absent from the result.  One
        call per follow-link operator."""


class LocalExecutor:
    """Evaluates computable NALG plans against a page-relation provider.

    Staged access pattern: one ``entry_tuples`` call per entry-point scan
    and one bulk ``target_tuples`` call per follow-link operator, so page
    accounting is the paper's C(E) for the plan.

    ``tracer`` (default: the zero-cost null tracer) opens one *operator
    span* per evaluated plan node, tagged with the compiled plan's stable
    **preorder** ``node_id`` (0 at the root, children in ``children()``
    order — the numbering the EXPLAIN ANALYZE renderer shares, so spans
    pair positionally with the plan tree it prints).
    ``meter`` (optional) is a zero-argument callable returning the current
    ``(pages, light_connections, cache_hits, revalidations, bytes,
    simulated_seconds)`` counters — typically read off the web client's
    :class:`~repro.web.client.AccessLog`.  Each operator span records the
    counter *delta* across its evaluation (children included), so a node's
    own cost is its delta minus its children's — and the per-operator
    "own" costs sum exactly to the query total.
    """

    def __init__(
        self,
        scheme: WebScheme,
        provider: PageRelationProvider,
        tracer=None,
        meter: Optional[Callable[[], tuple]] = None,
    ):
        self.scheme = scheme
        self.provider = provider
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.meter = meter

    def evaluate(self, expr: Expr) -> Relation:
        """Evaluate ``expr``; raises NotComputableError for bad plans."""
        return self.run(compile_plan(expr, self.scheme))

    def run(self, plan: CompiledPlan) -> Relation:
        """Evaluate an already compiled plan."""
        return self._eval(plan.root).to_relation()

    # ------------------------------------------------------------------ #

    def _eval(self, node: CompiledNode) -> ColumnBatch:
        tracer = self.tracer
        if not tracer.enabled:
            return self._eval_node(node)
        with tracer.span(
            node.span_name,
            kind="operator",
            node_id=node.node_id,
            op=node.op,
        ) as span:
            before = self.meter() if self.meter is not None else None
            batch = self._eval_node(node)
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
            span.set(tuples_out=batch.num_rows)
            return batch

    def _eval_node(self, node: CompiledNode) -> ColumnBatch:
        kind = node.kind
        if kind == "entry":
            return self._eval_entry(node)
        if kind == "follow":
            return self._eval_follow(node)
        if kind == "unnest":
            return apply_unnest(node, self._eval(node.children[0]))
        if kind == "select":
            return apply_select(node, self._eval(node.children[0]))
        if kind == "project":
            return apply_project(node, self._eval(node.children[0]), set())
        left = self._eval(node.children[0])
        right = self._eval(node.children[1])
        return apply_join(node, left, right)

    def _eval_entry(self, node: CompiledNode) -> ColumnBatch:
        assert node.page_scheme is not None and node.build_row is not None
        plain = self.provider.entry_tuples([node.page_scheme]).get(
            node.page_scheme
        )
        if plain is None:
            return ColumnBatch.empty(node.schema)
        return ColumnBatch.from_tuples(node.schema, [node.build_row(plain)])

    def _eval_follow(self, node: CompiledNode) -> ColumnBatch:
        return self._follow_from(node, self._eval(node.children[0]))

    def _follow_from(
        self, node: CompiledNode, child: ColumnBatch
    ) -> ColumnBatch:
        """Navigate ``node`` from an already-evaluated child batch: one
        ``target_tuples`` call for the child's distinct links, in
        first-seen order.  Split from :meth:`_eval_follow` so the adaptive
        executor can prune the child's bindings in between."""
        assert node.target_page_scheme is not None
        build_row = node.build_row
        assert build_row is not None
        urls = distinct_links(child.columns[node.link_index])
        plain_by_url = self.provider.target_tuples(
            node.target_page_scheme, urls
        )
        targets = {url: build_row(plain) for url, plain in plain_by_url.items()}
        return apply_follow(node, child, targets)
