"""Local evaluation of NALG plans.

:class:`LocalExecutor` evaluates a computable plan against page-relations
held locally, obtained through a :class:`PageRelationProvider`.  Navigations
are evaluated as joins over URLs — "expression ``P1 →L P2`` is evaluated as
``P1 ⋈_{P1.L = P2.URL} P2``" (paper, Section 8) — with the provider deciding
where the target tuples come from (the materialized store checks freshness
with light connections before handing tuples over, which is how Algorithm 3
plugs in).

:func:`qualify_row` converts a plain wrapped tuple (attribute-named, as
produced by the wrappers) into the qualified-name form the algebra's schemas
use; both executors share it.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence

from repro.adm.scheme import WebScheme
from repro.algebra.ast import (
    EntryPointScan,
    Expr,
    ExternalRelScan,
    FollowLink,
    Join,
    Project,
    Schemas,
    Select,
    Unnest,
    page_relation_schema,
)
from repro.algebra.computable import check_computable
from repro.errors import AlgebraError, NotComputableError
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

    The interface is batch-first: both methods take a whole set of pages so
    a provider backed by the live web can fetch them through one concurrent
    batch instead of a per-URL loop.  Providers that only implement the
    legacy single-page ``entry_tuple(page_scheme)`` keep working — the
    executor falls back to it when ``entry_tuples`` is absent (deprecated
    shim; new providers should implement the batch form).
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
        that no longer resolve are simply absent from the result.  This is
        the primary bulk entry point — one call per follow-link operator."""


class LocalExecutor:
    """Evaluates computable NALG plans against a page-relation provider.

    ``tracer`` (default: the zero-cost null tracer) opens one *operator
    span* per plan node, tagged with the node's stable **preorder**
    ``node_id`` (0 at the root, children in ``children()`` order — the
    numbering every executor and the EXPLAIN ANALYZE renderer share, so
    spans pair positionally with the plan tree it prints; ``id(node)``
    was used before, but Python ids collide across GC'd or shared
    subtrees).
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
        #: an executor runs one plan: each node is typed once per execution
        self.schemas = Schemas(scheme)
        self.provider = provider
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.meter = meter
        self._next_node_id = 0

    def evaluate(self, expr: Expr) -> Relation:
        """Evaluate ``expr``; raises NotComputableError for bad plans."""
        check_computable(expr, self.scheme)
        self._next_node_id = 0  # fresh preorder numbering per plan
        return self._eval(expr)

    # ------------------------------------------------------------------ #

    def _eval(self, expr: Expr) -> Relation:
        tracer = self.tracer
        if not tracer.enabled:
            return self._eval_node(expr)
        # claim the preorder id before recursing: parent before children,
        # children in children() order — matching compile_plan's numbering
        node_id = self._next_node_id
        self._next_node_id += 1
        with tracer.span(
            self._span_name(expr),
            kind="operator",
            node_id=node_id,
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

    @staticmethod
    def _span_name(expr: Expr) -> str:
        if isinstance(expr, EntryPointScan):
            return f"entry {expr.page_scheme}"
        if isinstance(expr, FollowLink):
            return f"follow →{expr.link_attr}"
        if isinstance(expr, Unnest):
            return f"unnest {expr.attr}"
        if isinstance(expr, Select):
            return "select"
        if isinstance(expr, Project):
            return "project"
        if isinstance(expr, Join):
            return "join"
        return type(expr).__name__

    def _eval_node(self, expr: Expr) -> Relation:
        if isinstance(expr, EntryPointScan):
            return self._eval_entry(expr)
        if isinstance(expr, FollowLink):
            return self._eval_follow(expr)
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
        if isinstance(expr, ExternalRelScan):
            raise NotComputableError(
                f"external relation {expr.name!r} reached the executor"
            )
        raise AlgebraError(f"cannot evaluate {type(expr).__name__}")

    def _eval_entry(self, expr: EntryPointScan) -> Relation:
        schema = self.schemas.of(expr)
        entry_tuples = getattr(self.provider, "entry_tuples", None)
        if entry_tuples is not None:
            plain = entry_tuples([expr.page_scheme]).get(expr.page_scheme)
        else:  # deprecated single-page providers
            plain = self.provider.entry_tuple(expr.page_scheme)
        rows = [] if plain is None else [qualify_row(schema, plain)]
        return Relation(schema, rows)

    def _eval_follow(self, expr: FollowLink) -> Relation:
        return self._follow_from(expr, self._eval(expr.child))

    def _follow_from(self, expr: FollowLink, child: Relation) -> Relation:
        """Navigate ``expr`` from an already-evaluated child relation.

        Split from :meth:`_eval_follow` so the adaptive executor
        (:mod:`repro.engine.adaptive`) can prune the child's bindings
        between evaluating the child and scheduling the fetch batch."""
        target = self.schemas.link_type(expr).target
        target_alias = self.schemas.target_alias(expr)
        schema = self.schemas.of(expr)

        # distinct link values, preserving first-seen order
        urls: list[str] = []
        seen: set[str] = set()
        for row in child.rows:
            value = row.get(expr.link_attr)
            if value is not None and value not in seen:
                seen.add(value)
                urls.append(value)

        target_schema = page_relation_schema(self.scheme, target, target_alias)
        plain_by_url = self.provider.target_tuples(target, urls)
        qualified = {
            url: qualify_row(target_schema, plain)
            for url, plain in plain_by_url.items()
        }
        rows = []
        for row in child.rows:
            value = row.get(expr.link_attr)
            if value is None:
                continue
            target_row = qualified.get(value)
            if target_row is None:
                continue  # dangling link: nothing to navigate to
            rows.append({**row, **target_row})
        return Relation(schema, rows)
