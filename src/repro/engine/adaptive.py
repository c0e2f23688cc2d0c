"""Adaptive execution: runtime relevance pruning + mid-query switching.

The planner commits to one of rules 1–9 from *a priori* statistics
(Section 6), but estimates can be badly wrong on skewed sites.  Following
Benedikt, Gottlob and Senellart ("Determining Relevance of Accesses at
Runtime"), an access whose result provably cannot contribute to the
answer may be skipped without changing that answer — relevance is a
property of an access, not of a tuple layout.  The
:class:`AdaptiveExecutor` (``execution="adaptive"``) subclasses the
compiled staged executor and layers two such runtime decisions on its
column batches:

**Runtime relevance pruning.**  Before each follow-link batch is
scheduled, every binding is tested against the constraints the rest of
the plan is known to impose on it:

* *join-key semijoin* — at a join, the already-evaluated side fixes the
  set of join-key values that can still match; a binding on the other
  side whose key (tracked by field *provenance*, which survives renames)
  is outside that set — or null, which never joins (SQL semantics) —
  is pruned before its link is fetched;
* *pushed-down selection* — a selection on a link's *target* attribute
  whose value is documented on the source side by a link constraint
  (the same evidence rule 6's push-down uses) filters bindings before
  the fetch.

Both tests are *proofs* of irrelevance: every operator between the
follow and the constraint is per-row monotone, so a pruned row's entire
derivation is dropped by that operator anyway and the output **multiset**
is unchanged — not merely the digest.

**Mid-query strategy switching (rules 8/9).**  At a join matching the
paper's link-join shape, the executor evaluates the non-navigation side
first, observes the actual fan-outs, and re-runs the Section 7 crossover
(:func:`repro.optimizer.cost.crossover_winner`) with observed counts in
place of estimates.  When the observation crosses the modeled threshold
the unexecuted suffix is re-planned through
:meth:`~repro.optimizer.planner.Planner.replan_suffix` (rule 8,
chase → join: restrict the pointer set to links that can still join) or
through the pre-validated rule-9 rewriting (join → chase: navigate from
the restricting side and skip the other navigation entirely).  Every
firing is recorded in the report's :class:`~repro.obs.rewrite.
RewriteTrace`, on the ``repro_adaptive_switches_total`` counter, and as
an ``adaptive-switch`` span event.

Non-speculation still holds in a one-sided form: the adaptive executor
never fetches a page the static plan would not have fetched, so
``pages(adaptive) <= pages(static)`` with the same answer digest — the
invariant the QA matrix's ``adaptive`` execution dimension asserts cell
by cell (docs/ADAPTIVE.md, docs/TESTING.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.adm.scheme import WebScheme
from repro.algebra.ast import Expr, FollowLink, Join, Schemas
from repro.algebra.computable import is_computable
from repro.algebra.printer import render_expr
from repro.algebra.visitors import replace_at, walk
from repro.algebra.predicates import Comparison, In
from repro.engine.columnar import ColumnBatch, distinct_links
from repro.engine.compile import (
    CompiledNode,
    CompiledPlan,
    apply_join,
    apply_select,
    compile_plan,
)
from repro.engine.local import LocalExecutor, PageRelationProvider
from repro.errors import AlgebraError, PredicateError, SchemaError
from repro.nested.relation import Relation, canonical_value
from repro.nested.schema import RelationSchema
from repro.obs.metrics import METRICS
from repro.obs.rewrite import STRATEGY_RULES, RewriteTrace
from repro.optimizer.cost import StrategyCrossover
from repro.optimizer.memo import PlanMemo
from repro.optimizer.rules import RULES, _match_link_join, _source_attr_for

__all__ = [
    "AdaptiveExecutor",
    "AdaptivePrune",
    "AdaptiveReport",
    "AdaptiveSwitch",
]

#: Follow-link fetches skipped because the binding was proven irrelevant.
PRUNES_TOTAL = METRICS.counter(
    "repro_adaptive_prunes_total",
    "Link fetches pruned by the adaptive executor's runtime relevance test",
)
#: Mid-query pointer-join <-> pointer-chase switches fired.
SWITCHES_TOTAL = METRICS.counter(
    "repro_adaptive_switches_total",
    "Strategy switches (rules 8/9) fired mid-query by the adaptive executor",
)


@dataclass(frozen=True)
class AdaptivePrune:
    """One follow-link batch that lost bindings to the relevance test."""

    kind: str          #: "join-key" or "selection"
    link_attr: str     #: the follow's link attribute
    urls_before: int   #: distinct links before pruning
    urls_after: int    #: distinct links actually scheduled

    @property
    def urls_pruned(self) -> int:
        return self.urls_before - self.urls_after

    def describe(self) -> str:
        return (
            f"prune[{self.kind}] →{self.link_attr}: "
            f"{self.urls_before} → {self.urls_after} links "
            f"({self.urls_pruned} fetches skipped)"
        )


@dataclass(frozen=True)
class AdaptiveSwitch:
    """One rule-8/9 strategy switch fired on observed fan-outs."""

    rule: str                      #: "PointerJoin" or "PointerChase"
    crossover: StrategyCrossover   #: the observed-vs-modeled comparison
    suffix: str                    #: rendering of the suffix switched away from
    replanned: str                 #: rendering of the suffix switched to

    @property
    def strategy(self) -> str:
        """Human name of the strategy switched *to*."""
        return STRATEGY_RULES[self.rule]

    def describe(self) -> str:
        return (
            f"switch → {self.strategy}: observed chase cost "
            f"{self.crossover.chase_cost:g} vs join cost "
            f"{self.crossover.join_cost:g} ⇒ {self.crossover.winner}"
        )


class AdaptiveReport:
    """Every adaptive decision one execution took, for EXPLAIN ANALYZE.

    ``rewrite_trace`` records fired switches with the same
    :class:`~repro.obs.rewrite.RewriteTrace` machinery the planner uses,
    so ``strategy(plan_key)`` and lineage queries work on mid-query
    re-plannings exactly as on static candidates.
    """

    def __init__(self, cost_fn: Optional[Callable] = None):
        self.prunes: list[AdaptivePrune] = []
        self.switches: list[AdaptiveSwitch] = []
        self.pruned_urls: set[str] = set()
        self.rewrite_trace = RewriteTrace(cost_fn=cost_fn)

    @property
    def urls_pruned(self) -> int:
        return sum(p.urls_pruned for p in self.prunes)

    @property
    def decisions(self) -> int:
        return len(self.prunes) + len(self.switches)

    def summary_lines(self) -> list[str]:
        lines = [
            f"adaptive: {len(self.switches)} switch(es), "
            f"{self.urls_pruned} fetch(es) pruned"
        ]
        lines += [f"  {s.describe()}" for s in self.switches]
        lines += [f"  {p.describe()}" for p in self.prunes]
        return lines

    def summary(self) -> str:
        return "\n".join(self.summary_lines())


@dataclass(frozen=True)
class _Constraint:
    """Values a provenance-identified attribute must take to stay relevant."""

    key: tuple[str, str, str]     #: (alias, base page-scheme, attr path)
    values: frozenset             #: canonical values that can still match
    kind: str                     #: "join-key" or "selection"


def _prov_key(field_) -> Optional[tuple[str, str, str]]:
    prov = field_.provenance
    if prov is None:
        return None
    return (prov.scheme, prov.base_scheme, str(prov.path))


def _realign(batch: ColumnBatch, schema: RelationSchema) -> ColumnBatch:
    """``batch``'s columns in ``schema``'s order, found by name.

    After a rule-9 switch the chase's batch carries the chase's schema,
    while the join's ancestors were compiled against the join's.  The
    switch is legal only when the rewritten plan is well-typed with the
    same output (:meth:`AdaptiveExecutor._find_chase_sites`), so every
    name an ancestor reads exists in the chase's schema; any other column
    is provably unread and is filled with None."""
    by_name = dict(zip(batch.schema.names(), batch.columns))
    unread = [None] * batch.num_rows
    return ColumnBatch(
        schema, [by_name.get(name, unread) for name in schema.names()]
    )


class AdaptiveExecutor(LocalExecutor):
    """Staged evaluation plus runtime relevance tests and rule-8/9 switches.

    ``planner`` (optional) re-plans switched suffixes so the fired
    rewriting carries the planner's own validation and rendering;
    without it the executor still switches, using the raw rule
    application.  ``cost_model`` (optional) prices the navigation side
    for rule-9 (join → chase) decisions; without it only rule-8 switches
    and relevance pruning are active — both need observations only.

    The executor's page counters can only ever be *below* the static
    plan's: it schedules a subset of every static fetch batch and never
    adds a speculative one.  Operator spans carry the compiled plan's
    preorder ``node_id`` like every executor's; a link-join's restricting
    side is evaluated first, and the navigation a rule-9 switch skips
    leaves no span (EXPLAIN ANALYZE shows it as not evaluated).
    """

    def __init__(
        self,
        scheme: WebScheme,
        provider: PageRelationProvider,
        tracer=None,
        meter: Optional[Callable[[], tuple]] = None,
        planner=None,
        cost_model=None,
    ):
        super().__init__(scheme, provider, tracer=tracer, meter=meter)
        self.planner = planner
        self.cost_model = cost_model
        self.report = AdaptiveReport()
        self.schemas = Schemas(scheme)  # its own: compiled plans are shared
        self._constraints: list[_Constraint] = []
        self._chase_sites: dict[int, FollowLink] = {}
        #: nav follow node_id → the rule-8 check its link-join left for it
        self._link_joins: dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #

    def run(self, plan: CompiledPlan) -> Relation:
        self._constraints = []
        self._link_joins = {}
        cost_fn = self.cost_model.cost if self.cost_model else None
        self.report = AdaptiveReport(cost_fn=cost_fn)
        self._chase_sites = self._find_chase_sites(plan.root.expr)
        return self._eval(plan.root).to_relation()

    # ------------------------------------------------------------------ #
    # operator dispatch overrides
    # ------------------------------------------------------------------ #

    def _eval_node(self, node: CompiledNode) -> ColumnBatch:
        if node.kind == "join":
            return self._eval_join(node)
        if node.kind == "select":
            return self._eval_select(node)
        return super()._eval_node(node)

    def _eval_follow(self, node: CompiledNode) -> ColumnBatch:
        child = self._prune_follow_child(node, self._eval(node.children[0]))
        link_join = self._link_joins.pop(node.node_id, None)
        if link_join is not None:
            child = self._pointer_join(node, child, *link_join)
        return self._follow_from(node, child)

    # ------------------------------------------------------------------ #
    # selections: prefilter bindings via documented source attributes
    # ------------------------------------------------------------------ #

    def _eval_select(self, node: CompiledNode) -> ColumnBatch:
        pushed = self._push_selection_constraints(node)
        try:
            child = self._eval(node.children[0])
        finally:
            del self._constraints[len(self._constraints) - pushed:]
        return apply_select(node, child)

    def _push_selection_constraints(self, node: CompiledNode) -> int:
        """σ over a follow: turn target-attribute atoms into pre-fetch
        constraints on the documented source attribute (rule 6's
        evidence), returning how many constraints were pushed."""
        follow = node.children[0]
        if follow.kind != "follow":
            return 0
        child_schema = follow.children[0].schema
        target_alias = self.schemas.target_alias(follow.expr)
        link_field = child_schema.fields[follow.link_index]
        pushed = 0
        for atom in node.expr.predicate.atoms:
            if isinstance(atom, Comparison):
                values = frozenset([atom.value])
            elif isinstance(atom, In):
                values = frozenset(atom.values)
            else:
                continue
            prov = follow.schema.field(atom.attrs()[0]).provenance
            if prov is None or prov.scheme != target_alias:
                continue
            source = _source_attr_for(self.scheme, link_field, str(prov.path))
            if source is None or source not in child_schema:
                continue
            source_key = _prov_key(child_schema.field(source))
            if source_key is None:
                continue
            self._constraints.append(
                _Constraint(key=source_key, values=values, kind="selection")
            )
            pushed += 1
        return pushed

    # ------------------------------------------------------------------ #
    # joins: semijoin constraints + rule-8/9 switching
    # ------------------------------------------------------------------ #

    def _eval_join(self, node: CompiledNode) -> ColumnBatch:
        matches = _match_link_join(node.expr, self.schemas)
        if matches:
            return self._eval_link_join(node, matches[0])
        left = self._eval(node.children[0])
        pushed = self._push_join_constraints(node, left)
        try:
            right = self._eval(node.children[1])
        finally:
            del self._constraints[len(self._constraints) - pushed:]
        return apply_join(node, left, right)

    def _push_join_constraints(
        self, node: CompiledNode, left: ColumnBatch
    ) -> int:
        """Key sets the evaluated left side imposes on the right side's
        join attributes, keyed by provenance so they reach the binding
        *before* its follow-link fetch even across renames."""
        right_fields = node.children[1].schema.fields
        pushed = 0
        for left_index, right_index in node.join_pairs:
            key = _prov_key(right_fields[right_index])
            if key is None:
                continue
            values = frozenset(
                map(canonical_value, left.columns[left_index])
            ) - {None}
            self._constraints.append(
                _Constraint(key=key, values=values, kind="join-key")
            )
            pushed += 1
        return pushed

    def _eval_link_join(self, node: CompiledNode, match) -> ColumnBatch:
        """A join of the paper's link shape: evaluate the restricting
        side first, then re-run the Section 7 crossover on observations."""
        nav_node, other_node = (
            node.children[::-1] if match.flipped else node.children
        )
        other = self._eval(other_node)

        # rule 9 (join → chase): skip the navigation side entirely when
        # the restricting side's observed pointer set undercuts the
        # model's estimate for the navigation it replaces.
        chase = self._chase_sites.get(id(node.expr))
        if (
            chase is not None
            and self.cost_model is not None
            and chase.child is match.other
        ):
            observed = distinct_links(_column(other, chase.link_attr))
            crossover = StrategyCrossover(
                chase_cost=float(len(observed)),
                join_cost=self.cost_model.cost(match.nav),
            )
            if (
                crossover.winner == "chase"
                and crossover.chase_cost < crossover.join_cost
            ):
                self._record_switch(node.expr, chase, "PointerChase", crossover)
                follow = compile_plan(chase, self.scheme).root
                batch = self._follow_from(
                    follow, self._prune_follow_child(follow, other)
                )
                return _realign(batch, node.schema)

        # the navigation side runs the rule-8 check in _eval_follow,
        # between its child's evaluation and its fetch
        self._link_joins[nav_node.node_id] = (node, match, other)
        nav = self._eval(nav_node)
        if match.flipped:
            return apply_join(node, other, nav)
        return apply_join(node, nav, other)

    def _pointer_join(
        self,
        nav_node: CompiledNode,
        child: ColumnBatch,
        node: CompiledNode,
        match,
        other: ColumnBatch,
    ) -> ColumnBatch:
        """Rule 8 (chase → join): restrict the navigation's pointer set to
        links the other side can still join with, when the observed
        crossover says the join strategy wins."""
        link_column = child.columns[nav_node.link_index]
        links = distinct_links(link_column)
        allowed = set(distinct_links(_column(other, match.other_link.name)))
        restricted = [url for url in links if url in allowed]
        crossover = StrategyCrossover(
            chase_cost=float(len(links)), join_cost=float(len(restricted))
        )
        if crossover.winner != "join":
            return child
        replanned = self._replan(node.expr, "PointerJoin")
        self._record_switch(
            node.expr, replanned if replanned is not None else node.expr,
            "PointerJoin", crossover,
        )
        kept = child.gather(
            [i for i, url in enumerate(link_column) if url in allowed]
        )
        self._record_prune(nav_node, "join-key", links, set(restricted))
        return kept

    # ------------------------------------------------------------------ #
    # the relevance test at each follow
    # ------------------------------------------------------------------ #

    def _prune_follow_child(
        self, node: CompiledNode, child: ColumnBatch
    ) -> ColumnBatch:
        """Drop bindings that provably cannot contribute before fetching.

        Applies every active constraint whose provenance key names a
        field of the follow's child: a binding whose constrained value is
        null or outside the allowed set is discarded by the constraint's
        operator (null join keys never match; selections never accept
        null) — so skipping its fetch cannot change the answer."""
        if not self._constraints:
            return child
        applicable: list[tuple[int, _Constraint]] = []
        for index, field_ in enumerate(child.schema):
            key = _prov_key(field_)
            if key is None:
                continue
            for constraint in self._constraints:
                if constraint.key == key:
                    applicable.append((index, constraint))
        if not applicable:
            return child
        before = distinct_links(child.columns[node.link_index])
        keep: list[int] = list(range(child.num_rows))
        kinds: set[str] = set()
        for index, constraint in applicable:
            column = child.columns[index]
            kept = [
                i for i in keep
                if canonical_value(column[i]) in constraint.values
            ]
            if len(kept) < len(keep):
                kinds.add(constraint.kind)
            keep = kept
        if len(keep) == child.num_rows:
            return child
        pruned = child.gather(keep)
        after = set(distinct_links(pruned.columns[node.link_index]))
        if len(after) < len(before):
            kind = "join-key" if "join-key" in kinds else "selection"
            self._record_prune(node, kind, before, after)
        return pruned

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _replan(self, suffix: Expr, rule: str) -> Optional[Expr]:
        """The switched-to suffix, via the planner when one is wired."""
        if self.planner is not None:
            return self.planner.replan_suffix(
                suffix, rule=rule, trace=self.report.rewrite_trace
            )
        return None

    def _record_switch(
        self,
        suffix: Expr,
        replanned: Expr,
        rule: str,
        crossover: StrategyCrossover,
    ) -> None:
        switch = AdaptiveSwitch(
            rule=rule,
            crossover=crossover,
            suffix=render_expr(suffix),
            replanned=render_expr(replanned),
        )
        self.report.switches.append(switch)
        if rule == "PointerChase" or self.planner is None:
            # rule-8 firings via the planner are recorded by replan_suffix
            self.report.rewrite_trace.record(
                "adaptive re-planning",
                rule,
                switch.replanned,
                parent=switch.suffix,
                expr=replanned if replanned is not suffix else None,
            )
        SWITCHES_TOTAL.inc(rule=rule)
        self.tracer.event(
            "adaptive-switch",
            rule=rule,
            strategy=switch.strategy,
            chase_cost=crossover.chase_cost,
            join_cost=crossover.join_cost,
            winner=crossover.winner,
        )

    def _record_prune(
        self,
        follow: CompiledNode,
        kind: str,
        before: list[str],
        after: set,
    ) -> None:
        assert follow.link_attr is not None
        prune = AdaptivePrune(
            kind=kind,
            link_attr=follow.link_attr,
            urls_before=len(before),
            urls_after=len(after),
        )
        self.report.prunes.append(prune)
        self.report.pruned_urls.update(
            url for url in before if url not in after
        )
        PRUNES_TOTAL.inc(prune.urls_pruned, kind=kind)
        self.tracer.event(
            "adaptive-prune",
            kind=kind,
            link_attr=follow.link_attr,
            urls_before=prune.urls_before,
            urls_after=prune.urls_after,
        )

    # ------------------------------------------------------------------ #
    # rule-9 pre-pass
    # ------------------------------------------------------------------ #

    def _find_chase_sites(self, root: Expr) -> dict[int, FollowLink]:
        """Joins where a rule-9 rewriting of the *whole plan* validates.

        Rule 9 holds modulo the projection above it, so a switch is legal
        only when substituting the chase for the join leaves the full
        plan well-typed with the same output attributes — checked here
        once, before execution, exactly as the planner's validation step
        checks static rule-9 candidates.  Joins appearing at more than
        one position are skipped (the substitution test is positional).
        """
        root_names = self.schemas.of(root).names()
        memo = PlanMemo(self.scheme)
        sites: dict[int, FollowLink] = {}
        seen: set[int] = set()
        duplicated: set[int] = set()
        for path, node in walk(root):
            if not isinstance(node, Join):
                continue
            if id(node) in seen:
                duplicated.add(id(node))
                continue
            seen.add(id(node))
            for rewritten in RULES["PointerChase"].rewrite(node, memo):
                try:
                    full = replace_at(root, path, rewritten)
                    if self.schemas.of(full).names() != root_names:
                        continue
                    if not is_computable(full, self.scheme):
                        continue
                except (AlgebraError, SchemaError, PredicateError):
                    continue
                assert isinstance(rewritten, FollowLink)
                sites[id(node)] = rewritten
                break
        for node_id in duplicated:
            sites.pop(node_id, None)
        return sites


def _column(batch: ColumnBatch, name: str) -> list:
    """The column of ``batch`` named ``name``."""
    return batch.columns[batch.schema.names().index(name)]
