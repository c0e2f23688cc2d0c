"""Adaptive execution: runtime relevance pruning + mid-query switching.

The planner commits to one of rules 1–9 from *a priori* statistics
(Section 6), but estimates can be badly wrong on skewed sites.  Following
Benedikt, Gottlob and Senellart ("Determining Relevance of Accesses at
Runtime"), an access whose result provably cannot contribute to the
answer may be skipped without changing that answer.  The
:class:`AdaptiveExecutor` layers two such runtime decisions on the
staged row core (``execution="adaptive"`` / ``"adaptive_pipelined"``):

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

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.adm.scheme import WebScheme
from repro.algebra.ast import Expr, FollowLink, Join, Select
from repro.algebra.computable import check_computable, is_computable
from repro.algebra.printer import render_expr
from repro.algebra.visitors import replace_at, walk
from repro.algebra.predicates import Comparison, In
from repro.engine.local import LocalExecutor, PageRelationProvider
from repro.errors import AlgebraError, PredicateError, SchemaError
from repro.nested.relation import Relation, canonical_value
from repro.obs.metrics import METRICS
from repro.obs.rewrite import STRATEGY_RULES, RewriteTrace
from repro.optimizer.cost import StrategyCrossover, crossover_winner
from repro.optimizer.rules import (
    PointerChase,
    _match_link_join,
    _source_attr_for,
)

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
    adds a speculative one.  With a tracer attached, operator spans of a
    link-join's two sides are opened in decision order (restricting side
    first), so span *node ids* below a switched join do not pair with
    the printed plan tree the way static executions do — EXPLAIN
    ANALYZE shows adaptive decisions through the report instead.
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
        self._constraints: list[_Constraint] = []
        self._chase_sites: dict[int, FollowLink] = {}

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #

    def evaluate(self, expr: Expr) -> Relation:
        check_computable(expr, self.scheme)
        self._next_node_id = 0
        self._constraints = []
        cost_fn = self.cost_model.cost if self.cost_model else None
        self.report = AdaptiveReport(cost_fn=cost_fn)
        self._chase_sites = self._find_chase_sites(expr)
        return self._eval(expr)

    # ------------------------------------------------------------------ #
    # operator dispatch overrides
    # ------------------------------------------------------------------ #

    def _eval_node(self, expr: Expr) -> Relation:
        if isinstance(expr, Join):
            return self._eval_join(expr)
        if isinstance(expr, Select):
            return self._eval_select(expr)
        return super()._eval_node(expr)

    def _eval_follow(self, expr: FollowLink) -> Relation:
        child = self._prune_follow_child(expr, self._eval(expr.child))
        return self._follow_from(expr, child)

    # ------------------------------------------------------------------ #
    # selections: prefilter bindings via documented source attributes
    # ------------------------------------------------------------------ #

    def _eval_select(self, expr: Select) -> Relation:
        self.schemas.of(expr)  # validates predicate attrs
        pushed = self._push_selection_constraints(expr)
        try:
            child = self._eval(expr.child)
        finally:
            del self._constraints[len(self._constraints) - pushed:]
        return child.select(expr.predicate.evaluate)

    def _push_selection_constraints(self, expr: Select) -> int:
        """σ over a follow: turn target-attribute atoms into pre-fetch
        constraints on the documented source attribute (rule 6's
        evidence), returning how many constraints were pushed."""
        follow = expr.child
        if not isinstance(follow, FollowLink):
            return 0
        try:
            follow_schema = self.schemas.of(follow)
            child_schema = self.schemas.of(follow.child)
            target_alias = self.schemas.target_alias(follow)
            link_field = child_schema.field(follow.link_attr)
        except (AlgebraError, SchemaError):
            return 0
        pushed = 0
        for atom in expr.predicate.atoms:
            if isinstance(atom, Comparison):
                values = frozenset([atom.value])
            elif isinstance(atom, In):
                values = frozenset(atom.values)
            else:
                continue
            attr = atom.attrs()[0]
            try:
                target_field = follow_schema.field(attr)
            except SchemaError:
                continue
            prov = target_field.provenance
            if prov is None or prov.scheme != target_alias:
                continue
            source = _source_attr_for(self.scheme, link_field, str(prov.path))
            if source is None:
                continue
            try:
                source_key = _prov_key(child_schema.field(source))
            except SchemaError:
                continue
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

    def _eval_join(self, expr: Join) -> Relation:
        matches = _match_link_join(expr, self.schemas)
        if matches:
            return self._eval_link_join(expr, matches[0])
        left = self._eval(expr.left)
        pushed = self._push_join_constraints(expr, left)
        try:
            right = self._eval(expr.right)
        finally:
            del self._constraints[len(self._constraints) - pushed:]
        return left.join(right, expr.on)

    def _push_join_constraints(self, expr: Join, left: Relation) -> int:
        """Key sets the evaluated left side imposes on the right side's
        join attributes, keyed by provenance so they reach the binding
        *before* its follow-link fetch even across renames."""
        try:
            right_schema = self.schemas.of(expr.right)
        except (AlgebraError, SchemaError):
            return 0
        pushed = 0
        for lname, rname in expr.on:
            try:
                key = _prov_key(right_schema.field(rname))
            except SchemaError:
                continue
            if key is None:
                continue
            values = frozenset(
                v
                for v in (
                    canonical_value(row.get(lname)) for row in left.rows
                )
                if v is not None
            )
            self._constraints.append(
                _Constraint(key=key, values=values, kind="join-key")
            )
            pushed += 1
        return pushed

    def _eval_link_join(self, expr: Join, match) -> Relation:
        """A join of the paper's link shape: evaluate the restricting
        side first, then re-run the Section 7 crossover on observations."""
        other = self._eval(match.other)

        # rule 9 (join → chase): skip the navigation side entirely when
        # the restricting side's observed pointer set undercuts the
        # model's estimate for the navigation it replaces.
        chase = self._chase_sites.get(id(expr))
        if (
            chase is not None
            and self.cost_model is not None
            and chase.child is match.other
        ):
            observed = self._distinct_links(other, chase.link_attr)
            crossover = StrategyCrossover(
                chase_cost=float(len(observed)),
                join_cost=self.cost_model.cost(match.nav),
            )
            if (
                crossover.winner == "chase"
                and crossover.chase_cost < crossover.join_cost
            ):
                self._record_switch(expr, chase, "PointerChase", crossover)
                return self._follow_from(
                    chase, self._prune_follow_child(chase, other)
                )

        child = self._prune_follow_child(
            match.nav, self._eval(match.nav.child)
        )

        # rule 8 (chase → join): restrict the navigation's pointer set to
        # links the other side can still join with, when the observed
        # crossover says the join strategy wins.
        links = self._distinct_links(child, match.nav.link_attr)
        allowed = set(self._distinct_links(other, match.other_link.name))
        restricted = [url for url in links if url in allowed]
        crossover = StrategyCrossover(
            chase_cost=float(len(links)), join_cost=float(len(restricted))
        )
        if crossover.winner == "join":
            replanned = self._replan(expr, "PointerJoin")
            self._record_switch(
                expr, replanned if replanned is not None else expr,
                "PointerJoin", crossover,
            )
            kept = [
                row
                for row in child.rows
                if row.get(match.nav.link_attr) in allowed
            ]
            self._record_prune(
                match.nav, "join-key", links, set(restricted)
            )
            child = Relation(child.schema, kept)

        nav = self._follow_from(match.nav, child)
        if match.flipped:
            return other.join(nav, expr.on)
        return nav.join(other, expr.on)

    # ------------------------------------------------------------------ #
    # the relevance test at each follow
    # ------------------------------------------------------------------ #

    def _prune_follow_child(
        self, expr: FollowLink, child: Relation
    ) -> Relation:
        """Drop bindings that provably cannot contribute before fetching.

        Applies every active constraint whose provenance key names a
        field of the follow's child: a binding whose constrained value is
        null or outside the allowed set is discarded by the constraint's
        operator (null join keys never match; selections never accept
        null) — so skipping its fetch cannot change the answer."""
        if not self._constraints:
            return child
        applicable: list[tuple[str, _Constraint]] = []
        for field_ in child.schema:
            key = _prov_key(field_)
            if key is None:
                continue
            for constraint in self._constraints:
                if constraint.key == key:
                    applicable.append((field_.name, constraint))
        if not applicable:
            return child
        before = self._distinct_links(child, expr.link_attr)
        rows = child.rows
        kinds: set[str] = set()
        for name, constraint in applicable:
            kept = [
                row
                for row in rows
                if canonical_value(row.get(name)) in constraint.values
            ]
            if len(kept) < len(rows):
                kinds.add(constraint.kind)
            rows = kept
        if len(rows) == len(child.rows):
            return child
        pruned = Relation(child.schema, rows)
        after = set(self._distinct_links(pruned, expr.link_attr))
        if len(after) < len(before):
            kind = "join-key" if "join-key" in kinds else "selection"
            self._record_prune(expr, kind, before, after)
        return pruned

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _distinct_links(relation: Relation, attr: str) -> list[str]:
        """Distinct non-null values of ``attr`` in first-seen order."""
        seen: set = set()
        out: list[str] = []
        for row in relation.rows:
            value = row.get(attr)
            if value is not None and value not in seen:
                seen.add(value)
                out.append(value)
        return out

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
        follow: FollowLink,
        kind: str,
        before: list[str],
        after: set,
    ) -> None:
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
        root_names: tuple
        try:
            root_names = tuple(f.name for f in self.schemas.of(root))
        except (AlgebraError, SchemaError):
            return {}
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
            for rewritten in PointerChase().rewrite_node(node, self.scheme):
                try:
                    full = replace_at(root, path, rewritten)
                    names = tuple(f.name for f in self.schemas.of(full))
                    if names != root_names:
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
