"""The NALG rewrite rules (paper, Section 6.1).

All rules operate on *qualified-name* expressions (external relations
already expanded by rule 1, which lives in the planner because it needs the
view catalog).  The enumerative rules are data: :data:`RULES`, in the
order the rewriter tries them at every position of a plan, each entry a
lineage name, the :class:`~repro.optimizer.planner.PlannerOptions` flag
that enables it and ``rewrite(node, memo) → [replacement, ...]``.
Improvement passes (selection pushing, navigation elimination) are plain
functions applied once per plan — in this cost model they never hurt.
Both type nodes through the planning call's
:class:`~repro.optimizer.memo.PlanMemo`; every answer is a pure function
of the node asked about.

Correspondence with the paper:

=====================  =====================================================
Rule 1                 :meth:`repro.optimizer.planner.Planner` (expansion)
Rules 2, 3, 5          :func:`eliminate_unused` (unused navigations and
                       unnests dropped under a projection)
Rule 4                 :func:`merge_repeated` (``MergeRepeatedNavigation``)
Rule 6                 :func:`push_selections` (constraint-based attribute
                       substitution + physical pushdown)
Rule 7                 :func:`substitute_projection` with
                       :func:`projection_source` (``ProjectionSubstitution``)
Rule 8                 :func:`pointer_join` (``PointerJoin``)
Rule 9                 :func:`pointer_chase` (``PointerChase``)
=====================  =====================================================
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.adm.constraints import AttrRef
from repro.adm.scheme import WebScheme
from repro.adm.webtypes import LinkType
from repro.algebra.ast import (
    EntryPointScan,
    Expr,
    FollowLink,
    Join,
    Project,
    Schemas,
    Select,
    Unnest,
)
from repro.algebra.predicates import Atom, Comparison, In, Predicate
from repro.algebra.visitors import replace_child, walk
from repro.errors import AlgebraError, SchemaError, StatisticsError
from repro.nested.schema import Field, RelationSchema
from repro.optimizer.memo import PlanMemo, per_call

__all__ = [
    "Rule",
    "RULES",
    "join_pushdown",
    "merge_repeated",
    "pointer_join",
    "pointer_chase",
    "projection_source",
    "substitute_projection",
    "push_selections",
    "push_selections_below",
    "eliminate_unused",
    "eliminate_below",
    "droppable_prefixes",
    "substitute_attrs",
    "rename_attrs",
    "bind_constants",
]


# --------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------- #


def spine(expr: Expr) -> list[Expr]:
    """Nodes along the unary-child chain from ``expr`` down to its leaf."""
    nodes = [expr]
    while len(nodes[-1].children()) == 1:
        nodes.extend(nodes[-1].children())
    return nodes


def substitute_attrs(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rewrite attribute *references* (predicates, join pairs, projection
    inputs) throughout ``expr``.  Structural attributes (unnest targets,
    link attributes) are never renamed — mapping keys are external-view
    names, which cannot collide with internal qualified names."""
    if not mapping:
        return expr
    kids = tuple(substitute_attrs(kid, mapping) for kid in expr.children())
    return rename_attrs(expr, kids, mapping)


def rename_attrs(node: Expr, kids: tuple, mapping: dict[str, str]) -> Expr:
    """``node`` over ``kids`` with its own attribute references renamed."""
    if isinstance(node, Select):
        return Select(kids[0], node.predicate.rename(mapping))
    if isinstance(node, Project):
        return Project(kids[0], tuple((o, mapping.get(i, i)) for o, i in node.outputs))
    if isinstance(node, Join):
        on = tuple(
            (mapping.get(lhs, lhs), mapping.get(rhs, rhs)) for lhs, rhs in node.on
        )
        return Join(*kids, on)
    return node.with_children(kids)


def bind_constants(expr: Expr, binding: dict, bound: dict) -> Expr:
    """``expr`` with every selection constant ``c`` in ``binding``
    replaced by ``binding[c]`` — the counterpart of
    :func:`substitute_attrs` for values.  ``bound`` (``id(node)`` → (node,
    result), which pins the id) holds the nodes already bound, so plans
    sharing subtrees bind each once."""
    found = bound.get(id(expr))
    if found is None:
        kids = tuple(bind_constants(kid, binding, bound) for kid in expr.children())
        if isinstance(expr, Select):
            atoms = []
            for atom in expr.predicate.atoms:
                if isinstance(atom, Comparison):
                    atom = Comparison(atom.attr, binding.get(atom.value, atom.value))
                elif isinstance(atom, In):
                    atom = In(atom.attr, tuple(binding.get(v, v) for v in atom.values))
                atoms.append(atom)
            found = expr, Select(kids[0], Predicate(atoms))
        else:
            found = expr, expr.with_children(kids)
        bound[id(expr)] = found
    return found[1]


def _source_attr_for(
    scheme: WebScheme,
    link_field: Field,
    target_path: str,
) -> Optional[str]:
    """Given a link field (with provenance) and an attribute path of the
    link's *target* page-scheme, return the qualified name of the redundant
    *source-side* attribute if a link constraint documents it."""
    prov = link_field.provenance
    if prov is None:
        return None
    constraint = scheme.find_link_constraint(prov.base_scheme, prov.path, target_path)
    if constraint is None:
        return None
    return f"{prov.scheme}.{constraint.source_attr}"


# --------------------------------------------------------------------- #
# Rule 4 — eliminate repeated navigations
# --------------------------------------------------------------------- #


def merge_repeated(node: Expr, memo: PlanMemo) -> list[Expr]:
    """``R ⋈_Y R = R`` and ``(R ∘ A) ⋈_Y R = R ∘ A`` (paper, rule 4).

    Matches a join whose one side occurs *verbatim* on the other side's
    operator spine and whose join pairs equate an attribute with itself;
    the join then adds nothing and the longer navigation survives.

    The equality requires the equated attributes to identify tuples of the
    shared navigation.  With site statistics (``memo.stats``) the rule
    *verifies* this (``c_A ≥ |μ_A(P)|``, i.e. every value is unique at the
    attribute's level); without statistics it assumes it, which is sound
    for the key-like attributes (names, URLs) view expansion produces.
    """
    if not isinstance(node, Join) or not node.on:
        return []
    flipped = [(rhs, lhs) for lhs, rhs in node.on]
    return [
        long
        for short, long, on in (
            (node.left, node.right, node.on), (node.right, node.left, flipped)
        )
        if _mergeable(short, long, on, memo)
    ]


def _mergeable(short: Expr, long: Expr, on, memo: PlanMemo) -> bool:
    if short not in spine(long):
        return False
    schema = memo.schemas.get(short)
    if schema is None:
        return False
    return all(
        lhs == rhs and lhs in schema and _identifies(schema, lhs, memo.stats)
        for lhs, rhs in on
    )


def _identifies(schema: RelationSchema, attr: str, stats) -> bool:
    """True when values of ``attr`` are unique at its nesting level
    (statistics-verified when available)."""
    if stats is None:
        return True
    prov = schema.field(attr).provenance
    if prov is None:
        return False
    try:
        distinct = stats.distinct(prov.base_scheme, prov.path)
        total = stats.unnested_card(prov.base_scheme, prov.path)
    except StatisticsError:
        return False
    return distinct >= total - 1e-9


# --------------------------------------------------------------------- #
# Rules 8 and 9 — pointer join and pointer chase
# --------------------------------------------------------------------- #


class _LinkJoinMatch(NamedTuple):
    """A join of the paper's shape ``(R1 →L R3) ⋈_{R3.B = R2.A} R2``.

    ``nav``: the FollowLink side (R1 → R3); ``other``: R2; ``pair``:
    the (target_attr, other_attr) join pair realizing R3.B = R2.A;
    ``other_link``: the link field of R2 pointing at R3 whose constraint
    matches; ``rest``: remaining join pairs (none touching R3).
    """

    nav: FollowLink
    other: Expr
    pair: tuple
    other_link: Field
    rest: list
    flipped: bool


@per_call
def _link_join_matches(node: Expr, memo: PlanMemo) -> list[_LinkJoinMatch]:
    """:func:`_match_link_join` once per planning call: rules 8 and 9 both
    read it."""
    return _match_link_join(node, memo.schemas)


def _match_link_join(node: Expr, schemas: Schemas) -> list[_LinkJoinMatch]:
    if not isinstance(node, Join) or not node.on:
        return []
    scheme = schemas.scheme
    matches = []
    for flipped in (False, True):
        nav_side = node.right if flipped else node.left
        other = node.left if flipped else node.right
        if not isinstance(nav_side, FollowLink):
            continue
        nav_schema = schemas.get(nav_side)
        other_schema = schemas.get(other)
        if nav_schema is None or other_schema is None:
            continue
        target_alias = schemas.target_alias(nav_side)
        target_base = schemas.link_type(nav_side).target
        oriented = [(b, a) if flipped else (a, b) for a, b in node.on]  # (nav, other)
        for index, (na, oa) in enumerate(oriented):
            if na not in nav_schema or oa not in other_schema:
                continue
            na_field = nav_schema.field(na)
            if na_field.provenance is None:
                continue
            if na_field.provenance.scheme != target_alias:
                continue  # not an attribute of R3
            b_path = na_field.provenance.path
            oa_field = other_schema.field(oa)
            if oa_field.provenance is None:
                continue
            rest = oriented[:index] + oriented[index + 1:]
            # remaining pairs must not involve R3's attributes
            if any(
                (p in nav_schema
                 and nav_schema.field(p).provenance is not None
                 and nav_schema.field(p).provenance.scheme == target_alias)
                for p, _ in rest
            ):
                continue
            # find R2's link to R3 whose constraint equates A with B
            for field in other_schema:
                if not isinstance(field.wtype, LinkType):
                    continue
                if field.wtype.target != target_base:
                    continue
                if field.provenance is None:
                    continue
                if field.provenance.scheme != oa_field.provenance.scheme:
                    continue
                constraint = scheme.find_link_constraint(
                    field.provenance.base_scheme, field.provenance.path, b_path
                )
                if constraint is None:
                    continue
                if constraint.source_attr != oa_field.provenance.path:
                    continue
                matches.append(
                    _LinkJoinMatch(nav_side, other, (na, oa), field, rest, flipped)
                )
    return matches


def pointer_join(node: Expr, memo: PlanMemo) -> list[Expr]:
    """Rule 8: push the join below the navigation —
    ``(R1 →L R3) ⋈_{R3.B=R2.A} R2  =  (R1 ⋈_{R1.L=R2.L'} R2) →L R3``.

    Joining the two pointer sets first means only pages in the intersection
    are downloaded.
    """
    results = []
    for match in _link_join_matches(node, memo):
        pairs = match.rest + [(match.nav.link_attr, match.other_link.name)]
        sides = (match.nav.child, match.other)
        if match.flipped:  # each input stays on the side it came from
            pairs, sides = [(b, a) for a, b in pairs], sides[::-1]
        inner = Join(*sides, tuple(pairs))
        results.append(FollowLink(inner, match.nav.link_attr, match.nav.alias))
    return results


def pointer_chase(node: Expr, memo: PlanMemo) -> list[Expr]:
    """Rule 9: replace the join by navigation —
    ``π_X((R1 →L R3) ⋈_{R3.B=R2.A} R2) = π_X(R2 →L' R3)`` when the
    inclusion constraint ``R2.L' ⊆ R1.L`` holds.

    The R1 navigation is dropped entirely: since every R2 pointer is also an
    R1 pointer, chasing R2's links reaches exactly the joined pages.  Plans
    that still reference R1-side attributes above this node become ill-typed
    and are discarded by the planner — which is precisely the paper's side
    condition that X must not mention R1.
    """
    results = []
    for match in _link_join_matches(node, memo):
        if match.rest:
            continue  # residual pairs may reference the dropped side
        nav_link_field = memo.schemas.of(match.nav.child).field(match.nav.link_attr)
        if nav_link_field.provenance is None:
            continue
        subset = AttrRef(
            match.other_link.provenance.base_scheme,
            match.other_link.provenance.path,
        )
        superset = AttrRef(
            nav_link_field.provenance.base_scheme,
            nav_link_field.provenance.path,
        )
        if not memo.scheme.includes(subset, superset):
            continue
        # R1 must be an unrestricted navigation covering the full
        # extent; at this stage selections are still at the query root,
        # so a pure navigation chain suffices.
        if not _is_pure_navigation(match.nav.child):
            continue
        target_alias = memo.schemas.target_alias(match.nav)
        results.append(FollowLink(match.other, match.other_link.name, target_alias))
    return results


def _is_pure_navigation(expr: Expr) -> bool:
    return all(isinstance(n, (EntryPointScan, Unnest, FollowLink)) for n in spine(expr))


def join_pushdown(node: Expr, memo: PlanMemo) -> list[Expr]:
    """Push a join below unary operators on either input —
    ``Op(X) ⋈ R = Op(X ⋈ R)`` when the join condition only references
    attributes ``X`` already provides.

    The paper uses this silently: Example 7.2's derivation applies rule 9
    to the professor navigation even though the course navigation sits on
    top of it.  Unnest, follow-link and selection all commute with a join
    that does not touch the attributes they introduce (they act per-row on
    one side, independently of the other side), so exposing the buried
    FollowLink for rules 8/9 is sound.
    """
    if not isinstance(node, Join):
        return []
    results = []
    # Op(X) ⋈ R → Op(X ⋈ R), then L ⋈ Op(X) → Op(L ⋈ X)
    for index, side in enumerate(node.children()):
        if isinstance(side, (Unnest, FollowLink, Select)):
            (inner,) = side.children()
            inner_schema = memo.schemas.get(inner)
            if inner_schema is not None and all(
                pair[index] in inner_schema for pair in node.on
            ):
                pushed = replace_child(node, index, inner)
                results.append(side.with_children((pushed,)))
    return results


class Rule(NamedTuple):
    """An enumerative rule: its lineage name, the ``PlannerOptions`` flag
    that enables it, and ``rewrite(node, memo) → [replacement, ...]``."""

    name: str
    option: str
    rewrite: Callable[[Expr, PlanMemo], list[Expr]]


#: The enumerative rules by lineage name, in the order the rewriter tries
#: them at each position of a plan.
RULES = {
    rule.name: rule
    for rule in (
        Rule("JoinPushdown", "join_pushdown", join_pushdown),
        Rule("MergeRepeatedNavigation", "merge_repeated", merge_repeated),
        Rule("PointerJoin", "pointer_join", pointer_join),
        Rule("PointerChase", "pointer_chase", pointer_chase),
    )
}


# --------------------------------------------------------------------- #
# Rule 6 — selection pushing (with link-constraint substitution)
# --------------------------------------------------------------------- #


def push_selections(
    expr: Expr, scheme: WebScheme, memo: Optional[PlanMemo] = None
) -> Expr:
    """Move every selection atom as deep as it can go.

    Standard commutation moves atoms below projections, joins, unnests and
    navigations whose child already carries the atom's attribute.  When an
    atom is blocked at a navigation because it references a *target-page*
    attribute, rule 6 substitutes the redundant source-side attribute
    documented by a link constraint (``σ_{B=v}(R1 →L R2) = σ_{A=v}(R1 →L
    R2)``) and keeps pushing.  In the paper's cost model this is always
    beneficial: fewer tuples reach the navigation, so fewer pages are
    downloaded.
    """
    memo = memo or PlanMemo(scheme)
    result, atoms, placed = push_selections_below(expr, memo)
    for atom in atoms[placed:]:
        result = _insert_atom(result, atom, memo)
    return result


def push_selections_below(expr: Expr, memo: PlanMemo) -> tuple[Expr, tuple, int]:
    """Rule 6 in ``expr``, the input of a projection ``π`` that is left out:
    ``(pushed, atoms, placed)`` where ``atoms`` are ``expr``'s selection
    atoms, the first ``placed`` of them pushed into ``pushed`` — up to the
    first one ``expr`` does not provide.  :func:`push_selections` of
    ``π(expr)`` is then ``π(pushed)`` under one σ per remaining atom, in
    order, as long as ``π`` renames no attribute of ``atoms``."""
    result, atoms = _strip_selections(expr, memo)
    for placed, atom in enumerate(atoms):
        if not _provides(memo.schemas.get(result), atom):
            return result, atoms, placed
        result = _insert_atom(result, atom, memo)
    return result, atoms, len(atoms)


@per_call
def _strip_selections(node: Expr, memo: PlanMemo) -> tuple[Expr, tuple]:
    """``node`` without its selections, and their atoms in plan order."""
    if isinstance(node, Select):
        stripped, atoms = _strip_selections(node.child, memo)
        return stripped, node.predicate.atoms + atoms
    parts = [_strip_selections(kid, memo) for kid in node.children()]
    stripped = node.with_children(tuple(kid for kid, _ in parts))
    return stripped, tuple(atom for _, atoms in parts for atom in atoms)


@per_call
def _insert_atom(node: Expr, atom: Atom, memo: PlanMemo) -> Expr:
    """Insert ``σ_atom`` as deep as possible above/inside ``node``."""
    schemas = memo.schemas
    if isinstance(node, Project):
        # selections re-enter *below* projections (the translated query has
        # σ under π; the atom may reference attributes the π drops)
        renamed = atom.rename({o: i for o, i in node.outputs})
        if _provides(schemas.get(node.child), renamed):
            return Project(_insert_atom(node.child, renamed, memo), node.outputs)
        return Select(node, Predicate([atom]))

    schema = schemas.get(node)
    if not _provides(schema, atom):
        # attribute not available here: let the caller place the selection
        return Select(node, Predicate([atom]))

    # sink into the first input that carries the attributes (a selection's
    # input always does; a join tries its left side first)
    for index, kid in enumerate(node.children()):
        if _provides(schemas.get(kid), atom):
            return replace_child(node, index, _insert_atom(kid, atom, memo))

    # rule 6: substitute the redundant source attribute, if constrained
    if isinstance(node, FollowLink) and isinstance(atom, (Comparison, In)):
        attr = atom.attrs()[0]
        field = schema.field(attr)
        child_schema = schemas.of(node.child)
        if (
            field.provenance is not None
            and field.provenance.scheme == schemas.target_alias(node)
        ):
            link_field = child_schema.field(node.link_attr)
            source = _source_attr_for(
                memo.scheme, link_field, str(field.provenance.path)
            )
            if source is not None and source in child_schema:
                renamed = atom.rename({attr: source})
                return FollowLink(
                    _insert_atom(node.child, renamed, memo),
                    node.link_attr,
                    node.alias,
                )
    return Select(node, Predicate([atom]))


def _provides(schema: Optional[RelationSchema], atom: Atom) -> bool:
    return schema is not None and all(a in schema for a in atom.attrs())


# --------------------------------------------------------------------- #
# Rule 7 — projection substitution
# --------------------------------------------------------------------- #


def substitute_projection(outputs: tuple, source) -> list[tuple]:
    """Rule 7: a projected target-page attribute can be read off the source
    page instead — ``π_B(R1 →L R2) = π_A(π_{A,L}(R1 →L R2))`` given the
    link constraint ``R1.A = R2.B``.  The rewritings of a projection's
    ``outputs``, in output order: one per input ``in_name`` with a
    ``source(in_name)`` (see :func:`projection_source`) to stand for it.
    Together with :func:`eliminate_unused` this produces the plans that
    skip downloading target pages entirely (e.g. reading department names
    from the department *list* page's anchors)."""
    results = []
    for index, (out, in_name) in enumerate(outputs):
        found = source(in_name)
        if found is not None:
            results.append(outputs[:index] + ((out, found),) + outputs[index + 1:])
    return results


def projection_source(core: Expr, in_name: str, memo: PlanMemo) -> Optional[str]:
    """The source-side attribute rule 7 substitutes for input ``in_name`` of
    a projection over ``core``, or None — a function of the two alone."""
    schema = memo.schemas.get(core)
    if schema is None or in_name not in schema:
        return None
    field = schema.field(in_name)
    if field.provenance is None:
        return None
    nav = _navigations(core, memo).get(field.provenance.scheme)
    if nav is None:
        return None
    child_schema = memo.schemas.get(nav.child)
    if child_schema is None:
        return None
    link_field = child_schema.field(nav.link_attr)
    source = _source_attr_for(memo.scheme, link_field, str(field.provenance.path))
    if source is None or source not in schema or source == in_name:
        return None
    return source


@per_call
def _navigations(node: Expr, memo: PlanMemo) -> dict[str, FollowLink]:
    """The navigations in ``node``, by target alias (deepest wins)."""
    found: dict[str, FollowLink] = {}
    if isinstance(node, FollowLink):
        try:
            found[memo.schemas.target_alias(node)] = node
        except (AlgebraError, SchemaError):
            pass
    for kid in node.children():
        found.update(_navigations(kid, memo))
    return found


# --------------------------------------------------------------------- #
# Rules 2/3/5 — eliminate navigations and unnests that feed nothing
# --------------------------------------------------------------------- #


def eliminate_unused(core: Expr, in_names: tuple, memo: PlanMemo) -> Expr:
    """``core`` without the navigations (rule 5) and unnests (rule 3) whose
    attributes nothing uses — its operators, nor a projection on
    ``in_names`` over it (the rules are stated modulo π) — read through
    what ``memo.facts`` knows of the core.  Non-optional links only
    (optional links filter rows, so removing them would change the
    result)."""
    prefixes = memo.facts.get(droppable_prefixes, core, memo)
    # the prefixes some input starts with (the inputs themselves where the
    # prefixes are unknown): all a drop reads of the π
    hits = frozenset(in_names) if prefixes is None else frozenset(
        [p for p in prefixes for n in in_names if n.startswith(p)]
    )
    return memo.facts.get(eliminate_below, core, hits, memo)


def eliminate_below(core: Expr, hits: frozenset[str], memo: PlanMemo) -> Expr:
    """:func:`eliminate_unused` of ``core``: all it reads of the π is the
    prefixes its inputs start with (``hits``), since a drop only asks
    whether some used attribute starts with the dropped node's prefix."""
    while True:  # dropping one navigation can orphan the one below it
        rebuilt = _drop_unused(core, _used_attrs(core, memo) | hits, memo)
        if rebuilt == core:
            return core
        core = rebuilt


def droppable_prefixes(core: Expr, memo: PlanMemo) -> Optional[frozenset[str]]:
    """The prefixes a drop in ``core`` tests — navigation aliases and unnest
    attributes, each with a trailing dot — less those its selections and
    joins read: they are never dropped, so the test is always passed.
    Dropping only removes nodes, so later drops test a subset.  None when
    an unaliased navigation does not type (a drop below may make it)."""
    prefixes, fixed = set(), set()
    for _, node in walk(core):
        if isinstance(node, FollowLink):
            try:
                prefixes.add(f"{memo.schemas.target_alias(node)}.")
            except (AlgebraError, SchemaError):
                return None
        elif isinstance(node, Unnest):
            prefixes.add(f"{node.attr}.")
        else:
            fixed.update(_own_attrs(node))
    return frozenset(p for p in prefixes if not any(a.startswith(p) for a in fixed))


def _own_attrs(node: Expr) -> tuple:
    """The attributes ``node`` itself refers to."""
    if isinstance(node, Select):
        return node.predicate.attrs()
    if isinstance(node, Project):
        return node.in_names()
    if isinstance(node, Join):
        return tuple(attr for pair in node.on for attr in pair)
    if isinstance(node, FollowLink):
        return (node.link_attr,)
    return ()


@per_call
def _used_attrs(node: Expr, memo: PlanMemo) -> frozenset[str]:
    """Every attribute some operator in ``node`` refers to."""
    kids = (_used_attrs(kid, memo) for kid in node.children())
    return frozenset(_own_attrs(node)).union(*kids)


@per_call
def _drop_unused(expr: Expr, used: frozenset[str], memo: PlanMemo) -> Expr:
    kids = expr.children()
    if not kids:
        return expr
    rebuilt = expr.with_children(tuple(_drop_unused(k, used, memo) for k in kids))
    if isinstance(rebuilt, FollowLink):
        try:
            link_type = memo.schemas.link_type(rebuilt)
        except (AlgebraError, SchemaError):
            return rebuilt
        if link_type.optional:
            return rebuilt
        # every attribute of the navigated page is qualified by its alias
        prefix = f"{rebuilt.alias or link_type.target}."
        if not any(u.startswith(prefix) for u in used):
            return rebuilt.child
    elif isinstance(rebuilt, Unnest):
        # element fields are qualified below the list attribute's name
        prefix = f"{rebuilt.attr}."
        if not any(u.startswith(prefix) for u in used):
            return rebuilt.child
    return rebuilt
