"""Plan compilation: NALG expressions → specialized closures.

Evaluating a plan row by row re-decides everything per tuple: which
operator class a node is, which dict key a predicate probes, which
wrapper attribute feeds which qualified field.  None of that depends on
the data — it is all fixed the moment the plan and the web scheme are
known.  :func:`compile_plan` resolves it once per (plan, scheme):

* every node becomes a :class:`CompiledNode` carrying its output schema,
  a stable **preorder** ``node_id`` (0 at the root, children in
  ``children()`` order — the same numbering the EXPLAIN ANALYZE renderer
  derives from its own walk, see :func:`repro.obs.explain.plan_report`),
  and kind-specific closures;
* attribute names are resolved to **column offsets** against the child's
  pinned schema (predicate accessors, projection gathers, join pairs,
  unnest positions, link columns);
* page-tuple extraction paths (``provenance.path.leaf`` per field)
  become a ``build_row`` closure mapping one plain wrapped tuple to a
  value tuple in schema order — the columnar
  :func:`~repro.engine.local.qualify_row`;
* the **read set**: page-scheme → the attribute paths some operator
  reads (σ atoms, π inputs, ⋈ pairs, each → link, each unnested list),
  found through field provenance, so the wrapper extracts only those.
  A field nobody reads comes out of ``build_row`` as ``None``.

:class:`~repro.engine.local.LocalExecutor` (staged and adaptive) and
:class:`~repro.engine.pipeline.PipelinedExecutor` evaluate the compiled
plan over :class:`~repro.engine.columnar.ColumnBatch` values with the
``apply_*`` transforms below, converting to a
:class:`~repro.nested.relation.Relation` only at the result boundary.

Every node is typed through one :class:`~repro.algebra.ast.Schemas` memo
per compilation, dropped when it returns.  The compiled plan is kept in
one bounded table (:data:`MAX_PLANS` rows, least recently used first)
under the interned plan node and the scheme object, both pinned by the
row, so a repeated query compiles once; executors only read it
(docs/ENGINE.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from repro.adm.page_scheme import URL_ATTR
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
from repro.algebra.predicates import AttrEq, Comparison, In, Predicate
from repro.engine.columnar import (
    ColumnBatch,
    first_occurrences,
    follow_batch,
    join_batches,
    product_batches,
    unnest_batch,
)
from repro.errors import AlgebraError
from repro.nested.relation import canonical_value
from repro.nested.schema import Field, RelationSchema
from repro.optimizer.memo import Table

__all__ = ["CompiledNode", "CompiledPlan", "compile_plan"]

#: one plain wrapped page tuple → a value tuple in page-schema order
TupleBuilder = Callable[[dict], tuple]
#: batch → surviving row indexes (a compiled predicate)
Mask = Callable[[ColumnBatch], list]
#: gathered batch → one hashable dedup key per row
KeyFn = Callable[[ColumnBatch], list]

_KINDS = {
    EntryPointScan: "entry",
    FollowLink: "follow",
    Unnest: "unnest",
    Select: "select",
    Project: "project",
    Join: "join",
}


@dataclass
class CompiledNode:
    """One plan operator with everything name-shaped resolved to offsets.

    ``kind`` selects which of the optional payload fields are set:
    ``entry`` (``page_scheme`` + ``build_row``), ``follow``
    (``link_attr``/``link_index``/``target_page_scheme``/
    ``target_schema``/``build_row``), ``select`` (``mask``), ``project``
    (``gather_indexes`` + ``dedup_keys``), ``unnest``
    (``list_index``/``elem_names``), ``join`` (``join_pairs``, empty for
    a product).
    """

    node_id: int
    expr: Expr
    kind: str
    span_name: str
    op: str
    schema: RelationSchema
    children: tuple["CompiledNode", ...]
    # entry + follow
    page_scheme: Optional[str] = None
    build_row: Optional[TupleBuilder] = None
    # follow
    link_attr: Optional[str] = None
    link_index: int = -1
    target_page_scheme: Optional[str] = None
    target_schema: Optional[RelationSchema] = None
    # select
    mask: Optional[Mask] = None
    # project
    gather_indexes: tuple[int, ...] = ()
    dedup_keys: Optional[KeyFn] = None
    # unnest
    list_index: int = -1
    elem_names: tuple[str, ...] = ()
    #: set when the unnest was fused with the entry/follow child that
    #: produces the list: the child keeps the list column *raw* (plain
    #: wrapped sub-tuples, never qualified) and the unnest extracts the
    #: elements by these plain leaf names instead of ``elem_names``
    elem_keys: tuple[str, ...] = ()
    # join: ((left_offset, right_offset), ...); empty means product
    join_pairs: tuple[tuple[int, int], ...] = ()

    def walk(self):
        """This node and every descendant, preorder (= by node_id)."""
        yield self
        for child in self.children:
            yield from child.walk()


#: page-scheme → the attribute paths a plan reads (a
#: :class:`~repro.wrapper.ReadSet`'s paths)
PlanReads = dict[str, frozenset[tuple[str, ...]]]


@dataclass
class CompiledPlan:
    """A compiled plan: the root node and the preorder node count.  Every
    execution of the plan shares it and only reads it."""

    root: CompiledNode
    node_count: int

    @cached_property
    def reads(self) -> Optional[PlanReads]:
        """The plan's read set, found on first use (None when it has no
        root π: the answer is every column)."""
        return _plan_reads(self.root)


#: compiled plans kept across executions, like the planner's ``MAX_MEMO``
MAX_PLANS = 64
_PLANS = Table(MAX_PLANS)


def compile_plan(expr: Expr, scheme: WebScheme) -> CompiledPlan:
    """``expr`` compiled against ``scheme``, once per (plan, scheme).

    Raises NotComputableError for plans with a non-entry-point leaf and
    AlgebraError / SchemaError for schema violations — before any page
    is fetched; an error is not kept.
    """
    return _PLANS.get(_compile_plan, expr, scheme, None)  # no call memo


def _compile_plan(expr: Expr, scheme: WebScheme, _memo: None) -> CompiledPlan:
    check_computable(expr, scheme)
    ids = itertools.count()
    root = _compile(expr, Schemas(scheme), ids)
    return CompiledPlan(root, next(ids))


def _plan_reads(root: CompiledNode) -> Optional[PlanReads]:
    """Every page-scheme the plan wraps → the paths its operators read.
    A π reads its inputs (below the root too: it dedups on them); a list
    read whole reads every field of it."""
    if root.kind != "project":
        return None
    reads: dict[str, set[tuple[str, ...]]] = {}

    def read(field: Field, whole: bool = True) -> None:
        assert field.provenance is not None, "page schemas carry provenance"
        steps = field.provenance.path.steps
        if steps != (URL_ATTR,):
            reads.setdefault(field.provenance.base_scheme, set()).add(steps)
        if whole and field.elem is not None:
            for sub in field.elem:
                read(sub)

    for node in root.walk():
        expr = node.expr
        wrapped = node.target_page_scheme or node.page_scheme
        if wrapped is not None:
            reads.setdefault(wrapped, set())
        if not node.children:
            continue
        schema = node.children[0].schema
        if isinstance(expr, Select):
            names: tuple[str, ...] = expr.predicate.attrs()
        elif isinstance(expr, Project):
            names = expr.in_names()
        elif isinstance(expr, FollowLink):
            names = (expr.link_attr,)
        elif isinstance(expr, Unnest):
            # its length counts even when none of its fields is read
            read(schema.field(expr.attr), whole=False)
            continue
        else:
            assert isinstance(expr, Join)
            for left, right in expr.on:
                read(schema.field(left))
                read(node.children[1].schema.field(right))
            continue
        for name in names:
            read(schema.field(name))
    return {scheme: frozenset(paths) for scheme, paths in reads.items()}


# --------------------------------------------------------------------- #
# the compilation pass
# --------------------------------------------------------------------- #


def _field_extractor(field: Field) -> Callable[[dict], object]:
    """One qualified field's value out of a plain wrapped tuple."""
    assert field.provenance is not None, "page schemas carry provenance"
    leaf = field.provenance.path.leaf
    if field.is_list:
        assert field.elem is not None
        return _list_extractor(leaf, field.elem)
    return lambda plain: plain.get(leaf)


def _list_extractor(
    leaf: str, elem_schema: RelationSchema
) -> Callable[[dict], object]:
    """A list field's qualified sub-rows.  Flat elements (the
    overwhelmingly common case) are a precompiled zip of qualified names
    over plain-leaf probes; elements nesting further lists recurse."""
    names = elem_schema.names()
    if any(field.is_list for field in elem_schema):
        extractors = tuple(_field_extractor(field) for field in elem_schema)

        def extract(plain: dict) -> object:
            return [
                dict(zip(names, [get(sub) for get in extractors]))
                for sub in plain.get(leaf) or ()
            ]

        return extract

    leaves = tuple(
        field.provenance.path.leaf for field in elem_schema
        if field.provenance is not None
    )

    def extract_flat(plain: dict) -> object:
        return [
            dict(zip(names, map(sub.get, leaves)))
            for sub in plain.get(leaf) or ()
        ]

    return extract_flat


def _tuple_builder(
    schema: RelationSchema, raw_lists: frozenset = frozenset()
) -> TupleBuilder:
    """The columnar ``qualify_row``: leaf names and nested element schemas
    are resolved at compile time, so building a page row is one tuple of
    direct ``dict.get`` probes.

    List fields named in ``raw_lists`` are left as the raw plain
    sub-tuple lists (a fused unnest consumes them by leaf name, so
    qualifying them would be pure waste).  When every field reduces to a
    direct probe the builder compiles to a single C-level ``map``."""
    if all(not f.is_list or f.name in raw_lists for f in schema):
        leaves = tuple(
            f.provenance.path.leaf for f in schema if f.provenance is not None
        )
        assert len(leaves) == len(schema), "page schemas carry provenance"

        def build_atoms(plain: dict) -> tuple:
            return tuple(map(plain.get, leaves))

        return build_atoms

    extractors = tuple(_field_extractor(field) for field in schema)

    def build_row(plain: dict) -> tuple:
        return tuple(extract(plain) for extract in extractors)

    return build_row


def _fuse_unnest(child: CompiledNode, attr: str) -> tuple[str, ...]:
    """Try to fuse an unnest with the entry/follow child producing its
    list: rebuild the child's tuple builder to keep the list raw and
    return the plain leaf names the unnest should extract by.  Returns
    ``()`` (no fusion) when the child is not a page producer, the list
    comes from further down the plan, or the elements nest more lists."""
    if child.kind == "entry":
        builder_schema = child.schema
    elif child.kind == "follow":
        assert child.target_schema is not None
        builder_schema = child.target_schema
    else:
        return ()
    if attr not in builder_schema.names():
        return ()  # the list predates this page fetch
    field = builder_schema.field(attr)
    if field.elem is None:
        return ()
    keys = []
    for elem_field in field.elem:
        if elem_field.is_list or elem_field.provenance is None:
            return ()  # deeper nesting: keep the qualified form
        keys.append(elem_field.provenance.path.leaf)
    child.build_row = _tuple_builder(builder_schema, frozenset((attr,)))
    return tuple(keys)


def _compile_predicate(predicate: Predicate, schema: RelationSchema) -> Mask:
    """Resolve each conjunct to a column test over the surviving rows."""
    names = list(schema.names())
    tests: list[Callable[[list, list], list]] = []
    for atom in predicate.atoms:
        if isinstance(atom, Comparison):
            offset, value = names.index(atom.attr), atom.value

            def eq_test(columns, keep, _o=offset, _v=value):
                column = columns[_o]
                return [i for i in keep if column[i] == _v]

            tests.append(eq_test)
        elif isinstance(atom, AttrEq):
            left, right = names.index(atom.left), names.index(atom.right)

            def attr_test(columns, keep, _l=left, _r=right):
                left_column, right_column = columns[_l], columns[_r]
                return [
                    i
                    for i in keep
                    if left_column[i] is not None
                    and left_column[i] == right_column[i]
                ]

            tests.append(attr_test)
        elif isinstance(atom, In):
            offset, values = names.index(atom.attr), frozenset(atom.values)

            def in_test(columns, keep, _o=offset, _v=values):
                column = columns[_o]
                return [i for i in keep if column[i] in _v]

            tests.append(in_test)
        else:  # pragma: no cover - no such atom kind exists today
            raise AlgebraError(f"cannot compile atom {atom!r}")

    def mask(batch: ColumnBatch) -> list:
        keep: list = list(range(batch.num_rows))
        columns = batch.columns
        for test in tests:
            if not keep:
                break
            keep = test(columns, keep)
        return keep

    return mask


def _dedup_keys(schema: RelationSchema) -> KeyFn:
    """Per-row projection dedup keys for a batch of ``schema``."""
    if any(field.is_list for field in schema):
        # list values are unhashable; key on canonical forms (the same
        # information canonical_row orders by name)
        def canonical_keys(batch: ColumnBatch) -> list:
            columns = batch.columns
            return [
                tuple(canonical_value(column[i]) for column in columns)
                for i in range(batch.num_rows)
            ]

        return canonical_keys

    # atom-only outputs: the raw value tuple in (fixed) schema order is
    # equality-equivalent to canonical_row
    def value_keys(batch: ColumnBatch) -> list:
        return list(zip(*batch.columns)) if batch.columns else []

    return value_keys


def _compile(expr: Expr, schemas: Schemas, ids: itertools.count) -> CompiledNode:
    kind = _KINDS.get(type(expr))
    if kind is None:
        raise AlgebraError(f"cannot compile {type(expr).__name__}")
    node_id = next(ids)
    schema = schemas.of(expr)  # validates the node's names
    children = tuple(_compile(child, schemas, ids) for child in expr.children())
    node = CompiledNode(
        node_id=node_id,
        expr=expr,
        kind=kind,
        span_name=kind,
        op=type(expr).__name__,
        schema=schema,
        children=children,
    )
    child_names = list(children[0].schema.names()) if children else []

    if isinstance(expr, EntryPointScan):
        node.span_name = f"entry {expr.page_scheme}"
        node.page_scheme = expr.page_scheme
        node.build_row = _tuple_builder(schema)
    elif isinstance(expr, FollowLink):
        node.span_name = f"follow →{expr.link_attr}"
        node.link_attr = expr.link_attr
        node.link_index = child_names.index(expr.link_attr)
        target = schemas.link_type(expr).target
        target_schema = page_relation_schema(
            schemas.scheme, target, schemas.target_alias(expr)
        )
        node.target_page_scheme = target
        node.target_schema = target_schema
        node.build_row = _tuple_builder(target_schema)
    elif isinstance(expr, Unnest):
        node.span_name = f"unnest {expr.attr}"
        elem = children[0].schema.field(expr.attr).elem
        assert elem is not None
        node.list_index = child_names.index(expr.attr)
        node.elem_names = elem.names()
        node.elem_keys = _fuse_unnest(children[0], expr.attr)
    elif isinstance(expr, Select):
        node.mask = _compile_predicate(expr.predicate, children[0].schema)
    elif isinstance(expr, Project):
        node.gather_indexes = tuple(
            child_names.index(name) for name in expr.in_names()
        )
        node.dedup_keys = _dedup_keys(schema)
    elif isinstance(expr, Join):
        right_names = list(children[1].schema.names())
        node.join_pairs = tuple(
            (child_names.index(left), right_names.index(right))
            for left, right in expr.on
        )
    return node


# --------------------------------------------------------------------- #
# batch transforms shared by the staged and pipelined executors
# --------------------------------------------------------------------- #


def apply_select(node: CompiledNode, batch: ColumnBatch) -> ColumnBatch:
    assert node.mask is not None
    keep = node.mask(batch)
    if len(keep) == batch.num_rows:
        return batch
    return batch.gather(keep)


def apply_unnest(node: CompiledNode, batch: ColumnBatch) -> ColumnBatch:
    return unnest_batch(
        batch, node.list_index, node.elem_names, node.schema, node.elem_keys
    )


def apply_project(
    node: CompiledNode, batch: ColumnBatch, seen: set
) -> ColumnBatch:
    """Gather the output columns and keep first occurrences; ``seen``
    belongs to the caller (one set per operator evaluation) so the
    pipelined executor can dedup across chunks."""
    assert node.dedup_keys is not None
    gathered = ColumnBatch(
        node.schema, [batch.columns[i] for i in node.gather_indexes]
    )
    take = first_occurrences(node.dedup_keys(gathered), seen)
    if len(take) == gathered.num_rows:
        return gathered
    return gathered.gather(take)


def apply_join(
    node: CompiledNode, left: ColumnBatch, right: ColumnBatch
) -> ColumnBatch:
    if not node.join_pairs:
        return product_batches(left, right, node.schema)
    return join_batches(
        left, right, node.join_pairs[0], node.join_pairs[1:], node.schema
    )


def apply_follow(
    node: CompiledNode, batch: ColumnBatch, targets: dict
) -> ColumnBatch:
    return follow_batch(batch, node.link_index, targets, node.schema)
