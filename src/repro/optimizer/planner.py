"""Algorithm 1: Navigation Plan Selection (paper, Section 6.3).

Given a conjunctive query over external relations the planner:

1. translates it into relational algebra over external-relation scans
   (:mod:`repro.views.translate`);
2. replaces each external relation with its default navigations *in all
   possible ways* (rule 1);
3. eliminates repeated navigations (rule 4, to closure);
4. pushes and prunes joins (rules 8 and 9, to closure);
5. pushes selections (rule 6, an improvement pass);
6. substitutes projections (rule 7, to closure);
7. eliminates unnecessary navigations and unnests (rules 5/3);
8. estimates C(E) for every surviving candidate and picks the cheapest,
   silently discarding the ill-typed ones (e.g. rule 9 dropped a side the
   query still needs: the paper's π_X side condition).

The steps run as stages, each a pure function of the part of the query it
reads, with its rows in the planner's :class:`~repro.optimizer.memo.Table`:
steps 2–4 per join graph below the query's root π/σ (``_enumerate``), step
5 per σ over a graph (``_select``), steps 6–8 per query shape (``_shape``)
and binding the constants per query (``_bind``).  Steps 6–8 are one *π
step* (``_project``, ``_rank``) over plans ``σ*(π(core))`` held as data
(``_Pi``): rule 7's substitute for an input is a function of (core,
in-name), rules 3/5 of (core, the core's droppable prefixes some π input
starts with), and π downloads no page, so C(E) and bytes of ``π(core')``
are ``core'``'s.  What is learnt of a core is kept on the σ's row, and
goes with it; the plans are validated, priced and ranked from it, and
only the chosen one becomes nodes — the others do when first read.  A
traced run goes through the same stages in tables of its own, and its
trace records what they found.

The shape law: C(E) reads only distinct counts (``1/c`` per equality with
a constant, ``k/c`` per IN list of ``k`` values), never a constant's value,
so a query's ranked candidate list belongs to its *shape* — the query with
each distinct constant replaced by a placeholder.  Only the final
tie-break, on rendered text, reads the constants, and binding redoes it.
"""

from __future__ import annotations

import itertools
import math
import re
import threading
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

from repro.adm.scheme import WebScheme
from repro.algebra.ast import Expr, ExternalRelScan, Project, Select, _intern
from repro.algebra.computable import is_computable
from repro.algebra.predicates import Predicate
from repro.algebra.printer import render_expr, render_projection
from repro.algebra.visitors import replace_at, walk
from repro.errors import AlgebraError, OptimizerError, PredicateError, SchemaError
from repro.obs.rewrite import RewriteTrace
from repro.optimizer import rewriter
from repro.optimizer.cost import CacheEstimate, CostModel
from repro.optimizer.memo import PlanMemo, Table
from repro.optimizer.rules import (
    RULES,
    bind_constants,
    eliminate_unused,
    projection_source,
    push_selections,
    push_selections_below,
    rename_attrs,
    substitute_attrs,
    substitute_projection,
)
from repro.views.conjunctive import ConjunctiveQuery
from repro.views.external import ExternalView, realias_navigation
from repro.views.translate import translate
from repro.web.client import CostSummary

__all__ = ["PlanCandidate", "PlannerResult", "Planner", "PlannerOptions"]

#: Cap on rule-1 expansion combinations (navigation choices multiply).
MAX_EXPANSIONS = 256

#: Rows a planner keeps per stage; the least recently used go first.
MAX_MEMO = 512


@dataclass(frozen=True, slots=True)
class PlanCandidate:
    """One costed execution plan.

    ``cost`` is the paper's page-count C(E); ``bytes_cost`` is the footnote-8
    refinement used to break page-count ties (a smaller list page beats a
    bigger one, as in the Introduction's path 2 vs path 1).
    """

    expr: Expr
    cost: float
    cardinality: float
    bytes_cost: float = 0.0

    def render(self, compact: bool = True, scheme: Optional[WebScheme] = None) -> str:
        return render_expr(self.expr, compact=compact, scheme=scheme)


@dataclass
class PlannerResult:
    """The chosen plan plus everything the optimizer considered.

    When the plan was selected under a :class:`CacheEstimate`,
    ``cache_estimate`` records it and ``uncached_cost`` is the chosen
    plan's plain C(E) — so ``uncached_cost - best.cost`` is the page
    saving the optimizer expects from the warm cache."""

    best: PlanCandidate
    candidates: Sequence[PlanCandidate]  # all valid candidates, cheapest first
    generated: int    # plans generated before validation
    cache_estimate: Optional[CacheEstimate] = None
    uncached_cost: Optional[float] = None
    #: candidate lineage (which rule produced which plan, with C(E) at
    #: each step) when the run was traced; see :meth:`why`
    rewrite_trace: Optional[RewriteTrace] = None

    @property
    def cost(self) -> CostSummary:
        """Estimated cost of the chosen plan in the shared summary shape
        (same fields as ``ExecutionResult.cost``).  ``attempts`` assumes one
        request per page; ``simulated_seconds`` and ``light_connections``
        are only measurable at run time and report 0.  Under a cache
        estimate, ``pages_saved`` is the expected download saving."""
        saved = 0.0
        if self.uncached_cost is not None:
            saved = max(0.0, self.uncached_cost - self.best.cost)
        return CostSummary(
            pages=self.best.cost,
            light_connections=0.0,
            bytes=self.best.bytes_cost,
            simulated_seconds=0.0,
            attempts=self.best.cost,
            pages_saved=saved,
        )

    def describe(self, scheme: Optional[WebScheme] = None, limit: int = 10) -> str:
        lines = [f"{len(self.candidates)} valid plans (of {self.generated} generated):"]
        for cand in self.candidates[:limit]:
            marker = "→" if cand is self.best else " "
            rendered = cand.render(scheme=scheme)
            lines.append(f" {marker} [{cand.cost:10.2f} pages] {rendered}")
        if len(self.candidates) > limit:
            lines.append(f"   ... {len(self.candidates) - limit} more")
        return "\n".join(lines)

    def why(self, candidate: Optional[PlanCandidate] = None) -> str:
        """*Why this plan*: the lineage of ``candidate`` (default: the
        chosen plan) — which of rules 1–9 fired, in which planner phase,
        with the C(E) estimate at each step — ending with the access-path
        strategy (pointer-join vs pointer-chase) that produced it.
        Requires a traced run (``plan_query(..., trace=True)``)."""
        if self.rewrite_trace is None:
            return "(planner run was not traced; re-plan with trace=True)"
        target = candidate if candidate is not None else self.best
        return self.rewrite_trace.describe(render_expr(target.expr))


@dataclass(frozen=True)
class PlannerOptions:
    """Feature toggles for ablation studies.

    Each flag disables one rewrite family; the default enables everything
    (the paper's full Algorithm 1).  Disabling a family never breaks
    correctness — plans just get worse — which the ablation benchmark
    quantifies.
    """

    merge_repeated: bool = True        # rule 4
    pointer_join: bool = True          # rule 8
    pointer_chase: bool = True         # rule 9
    join_pushdown: bool = True         # the reassociation rules 8/9 need
    push_selections: bool = True       # rule 6
    substitute_projections: bool = True  # rule 7
    eliminate_navigations: bool = True   # rules 3/5


class Planner:
    """Algorithm 1 over a web scheme, an external view, and statistics."""

    def __init__(
        self,
        view: ExternalView,
        cost_model: CostModel,
        options: Optional[PlannerOptions] = None,
    ):
        self.view = view
        self.scheme = view.scheme
        self.cost_model = cost_model
        self.options = options or PlannerOptions()
        #: the rows of every stage, per query, query shape, σ over a join
        #: graph and join graph (see the module docstring)
        self._table = Table(MAX_MEMO)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def plan_query(
        self,
        query: ConjunctiveQuery,
        cache_estimate: Optional[CacheEstimate] = None,
        trace: bool = False,
    ) -> PlannerResult:
        """Plan a conjunctive query (steps 1–8).

        ``cache_estimate`` makes step 8 cache-aware: candidates are costed
        with per-page-scheme hit rates, so a plan whose pointer set is
        already cached can win over the cold-cache choice; plans the
        estimate prices equally keep their cold order.

        ``trace=True`` records candidate lineage in a
        :class:`~repro.obs.rewrite.RewriteTrace` (attached to the result as
        ``rewrite_trace``) so :meth:`PlannerResult.why` can answer which
        rules produced the chosen plan.  A traced run plans the query itself
        through the same stages, in tables of its own; the plan chosen is
        identical either way.  Untraced, the planner plans the query's shape
        and binds its constants (see the module docstring), and keeps every
        stage's rows: a planner is bound to one statistics snapshot, which
        rule 4 reads; rebuilding it, as ``SiteEnv.refresh_statistics``
        does, drops them all.
        """
        if trace:
            memo = PlanMemo(self.scheme, self.cost_model.stats)
            pricing = [memo]  # steps are priced through the call's memo,
            rewrite_trace = RewriteTrace(
                cost_fn=lambda expr: self.cost_model.estimate(expr, *pricing).cost
            )
            try:
                expr = translate(query, self.view)
                return self._plan(expr, cache_estimate, rewrite_trace, memo)
            finally:
                pricing.clear()  # which dies with the call, not with the trace
        memo = PlanMemo(self.scheme, self.cost_model.stats, self._table)
        return self._table.get(self._bind, query, cache_estimate, memo)

    def enumerate_plans(
        self,
        query: ConjunctiveQuery,
        cache_estimate: Optional[CacheEstimate] = None,
        limit: Optional[int] = None,
    ) -> list[PlanCandidate]:
        """Every valid candidate Algorithm 1 considered, cheapest first.

        This is the *full plan space* of the rewrite system (rules 1–9 to
        closure), not just the cost winner — the paper's semantic claim is
        that all of them compute the same relation, differing only in page
        accesses, and the QA differential oracle (:mod:`repro.qa`)
        executes each one to enforce exactly that.  ``limit`` (at least 1)
        keeps only the ``limit`` cheapest candidates."""
        if limit is not None and limit < 1:
            raise OptimizerError(f"limit must be at least 1, not {limit}")
        candidates = self.plan_query(query, cache_estimate).candidates
        return list(candidates if limit is None else candidates[:limit])

    def plan_expr(
        self,
        expr: Expr,
        cache_estimate: Optional[CacheEstimate] = None,
        trace: Optional[RewriteTrace] = None,
    ) -> PlannerResult:
        """Plan a relational-algebra expression over external relations (a
        traced run in tables of its own)."""
        table = self._table if trace is None else None
        memo = PlanMemo(self.scheme, self.cost_model.stats, table)
        return self._plan(expr, cache_estimate, trace, memo)

    # ------------------------------------------------------------------ #
    # the stages
    # ------------------------------------------------------------------ #

    def _bind(self, query: ConjunctiveQuery, cache_estimate, memo) -> PlannerResult:
        """Per query: its shape's result with the constants bound."""
        shape, binding = _shape_of(query)
        return _bound(memo.table.get(self._shape, shape, cache_estimate, memo), binding)

    def _shape(self, shape: ConjunctiveQuery, cache_estimate, memo) -> PlannerResult:
        """Per query shape: its plan, ranked."""
        return self._plan(translate(shape, self.view), cache_estimate, None, memo)

    def _plan(
        self,
        expr: Expr,
        cache_estimate: Optional[CacheEstimate],
        trace: Optional[RewriteTrace],
        memo: PlanMemo,
    ) -> PlannerResult:
        """:meth:`plan_expr`, its candidates built on first read.  Everything
        derived per node lives in ``memo``, the stages' rows in
        ``memo.table``; ``trace`` records what they found."""
        # the root chain of π/σ (``translate`` emits one) over the join graph
        chain, graph = [], expr
        while isinstance(graph, (Project, Select)):
            chain.append(graph)
            graph = graph.child
        # steps 2-4: rules 1, 4 and 8/9, per join graph
        entries, enumerated = memo.table.get(self._enumerate, graph, memo)
        steps = None if trace is None else []  # what the stages below find
        made = _Plans()
        # step 5: rule 6, per σ over the graph (its row keeps core facts)
        plans, memo.facts = self._pushed(chain, entries, memo, steps, made)
        final = self._project(plans, memo, steps, made)
        if trace is not None:
            _observe(trace, itertools.chain(enumerated, steps), chain, memo)
        return self._rank(final, cache_estimate, memo, trace)

    def _project(self, plans: list, memo: PlanMemo, steps, made: "_Plans") -> list:
        """Steps 6 and 7, the π step's candidates: every plan's rule-7
        substitutions, breadth first, then rules 3/5 on each π-rooted one,
        all as data (``_Pi``) read off what ``memo.facts`` knows of the
        cores; ``made`` gives each plan one object, so identity dedups
        them as it does the nodes they stand for."""
        facts = memo.facts
        if self.options.substitute_projections:

            def rewritings(plan: _Pi) -> list:
                if plan.outputs is None:
                    return []

                def source(name: str) -> Optional[str]:
                    return facts.get(projection_source, plan.core, name, memo)

                core, preds = plan.core, plan.preds
                where = None if steps is None else _Pi(core, plan.outputs)
                return [
                    ("ProjectionSubstitution", where, made.plan(core, outputs, preds))
                    for outputs in substitute_projection(plan.outputs, source)
                ]

            phase, cap = "projection substitution (rule 7)", rewriter.MAX_PLANS
            plans = rewriter.saturate(plans, rewritings, cap, steps, phase)
        if self.options.eliminate_navigations:
            phase, kept = "eliminate navigation (rules 3/5)", []
            for plan in plans:
                if plan.outputs is not None and not plan.preds:  # a root π
                    try:
                        names = _in_names(plan.outputs)
                        core = eliminate_unused(plan.core, names, memo)
                    except (AlgebraError, SchemaError, PredicateError):
                        continue
                    result = made.plan(core, plan.outputs)
                    if steps is not None:
                        rule = "eliminate_unused_navigation"
                        steps.append((phase, rule, plan, None, result))
                    plan = result
                kept.append(plan)
            plans = kept
        return _dedup(plans)

    def _rank(self, final: list, cache_estimate, memo, trace) -> PlannerResult:
        """Step 8: validate, cost and rank the π step's plans, and build the
        cheapest (cache-aware when an estimate is given: the effective
        per-access page cost shrinks by the expected hit rate of the
        accessed page-scheme).  π downloads no page and adds its 0.0 bytes
        first, so a π plan has its core's C(E) and bytes; only its schema
        check and cardinality are its own, the latter computed when the
        plan is built."""
        model = self.cost_model
        if cache_estimate is not None:
            model = model.with_cache(cache_estimate)
        keyed = []
        for plan in final:
            if plan.outputs is not None and not plan.preds:
                target = plan.core  # validated once per core, on the σ row
                checked = memo.facts.get(_validated, target, self.cost_model, memo)
                names = _in_names(plan.outputs)
                if checked is None or any(name not in checked[1] for name in names):
                    continue
                schema = checked[1]
            else:  # σs over the π type only if they read its outputs
                outs = [out for out, _ in plan.outputs or ()]
                atoms = [atom for sigma in plan.preds for atom in sigma]
                if any(a not in outs for atom in atoms for a in atom.attrs()):
                    continue
                target, schema = plan.node(), None
                checked = memo.results.get(_validated, target, self.cost_model, memo)
                if checked is None:
                    continue
            cold = priced = checked[0]
            if cache_estimate is not None:  # priced per call
                repriced = _validated(target, model, memo)
                if repriced is None:
                    continue
                priced = repriced[0]
            # priced ties (a full cache prices every access alike) keep their
            # cold order: the cheapest plan if the cache turns out stale
            key = (
                (priced.cost, priced.bytes_cost)
                if cache_estimate is None
                else (priced.cost, cold.cost, priced.bytes_cost, cold.bytes_cost)
            )
            keyed.append((key, (plan, priced, schema)))
        if not keyed:
            raise OptimizerError(
                "no valid execution plan survived rewriting; check that "
                "the view's default navigations cover the queried attributes"
            )
        # rank; each run of ties is broken on the compact rendering when the
        # run is read, the first one now (it holds the chosen plan); both
        # sorts are stable, so plans that render alike keep their order
        keyed.sort(key=lambda pair: pair[0])
        order, ties = [], []
        for _, run in itertools.groupby(keyed, key=lambda pair: pair[0]):
            run = [entry for _, entry in run]
            if len(run) > 1:
                ties.append((len(order), len(order) + len(run)))
            order.extend(run)
        first, chosen = (), 0
        if ties and ties[0][0] == 0:
            first = tuple(_text(entry, memo) for entry in order[: ties[0][1]])
            chosen = first.index(min(first))
        best = _candidate(order[chosen], model)
        ranked = _Ranked(order, tuple(ties), first, chosen, best, model)
        return PlannerResult(
            best=best,
            candidates=ranked,
            generated=len(final),
            cache_estimate=cache_estimate,
            uncached_cost=None if cache_estimate is None else keyed[0][0][1],
            rewrite_trace=trace,
        )

    def _enumerate(self, graph: Expr, memo: PlanMemo) -> tuple[list, list]:
        """Per join graph: its core plans after rule 1 and rules 4 and 8/9
        to closure, each an ``_Expansion`` with the mapping of the rule-1
        expansion it descends from, and the steps that found them.  Rules 4
        and 8/9 rewrite joins, never what a query puts above a core; behind
        each of a query's plans is at most one entry per expansion, so the
        query's own plans are capped below."""
        expansions = self._expand(graph)
        steps = [
            ("expansion (rule 1)", "DefaultNavigation", None, None, _Expansion(*pair))
            for pair in expansions
        ]
        entries = _dedup([step[-1] for step in steps])
        cap = rewriter.MAX_PLANS * len(expansions)
        rules = [rule for rule in RULES.values() if getattr(self.options, rule.option)]
        merge = [rule for rule in rules if rule.name == "MergeRepeatedNavigation"]
        for phase, chosen in (
            ("merge repeated (rule 4)", merge), ("join rules (8/9)", rules)
        ):
            entries = rewriter.closure(
                entries, chosen, self.scheme, cap, steps, phase, memo
            )
        return entries, steps

    def _select(self, node: Expr, memo: PlanMemo) -> tuple:
        """Per σ over a join graph (``node``, a query's root π's child): the
        graph's entries pushed under the σ (rule 6), as (entry, pushed core,
        the atoms left for above the π as one σ each, the entry's renames);
        the attributes the atoms read; and the table of what rules 7 and
        3/5, validation and the tie-break learn of the cores, which goes
        with the row."""
        sigma = [node] if isinstance(node, Select) else []
        graph = node.child if sigma else node
        rows, attrs = [], set()
        for entry in memo.table.get(self._enumerate, graph, memo)[0]:
            core, atoms, placed = _attach(sigma, entry), (), 0
            if self.options.push_selections:
                try:
                    core, atoms, placed = push_selections_below(core, memo)
                except (AlgebraError, SchemaError, PredicateError):
                    continue  # as rule 6 over the plan drops it
            preds = tuple((atom,) for atom in atoms[placed:])
            rows.append((entry, core, preds, dict(entry.mapping)))
            attrs.update(attr for atom in atoms for attr in atom.attrs())
        return rows, frozenset(attrs), Table()

    def _pushed(self, chain: list, entries: list, memo: PlanMemo, steps, made):
        """Step 5, rule 6: the query's plans over its graph's ``entries``, as
        data (``_Pi``).  Pushing selections in ``π(e)`` is ``π`` over ``e``
        pushed, under one σ per atom ``e`` does not provide, as long as
        ``π`` renames no atom's attribute; so over the π(σ(graph))
        ``translate`` emits, the query puts its π on its σ's row (and keeps
        its cores' facts in the row's table), and any other chain is
        attached and pushed entry by entry."""
        phase = "push selections (rule 6)"
        kinds, cap = tuple(map(type, chain)), rewriter.MAX_PLANS
        # the cap counts the query's own plans: past it, the row is not used
        if kinds in ((Project,), (Project, Select)) and len(entries) <= cap:
            root = chain[0]
            rows, attrs, facts = memo.table.get(self._select, root.child, memo)
            if not any(out in attrs for out, _ in root.outputs):
                plans = []
                for entry, core, preds, renames in rows:
                    outputs = tuple((o, renames.get(i, i)) for o, i in root.outputs)
                    plans.append(made.plan(core, outputs, preds))
                    if steps is not None:
                        steps.append((phase, "push_selections", entry, None, plans[-1]))
                return _dedup(plans), facts
        plans = _dedup([_attach(chain, entry) for entry in entries])
        if len(plans) > cap:
            raise OptimizerError(
                f"rewrite closure exceeded {cap} plans; "
                "the query is too irregular for exhaustive enumeration"
            )
        if self.options.push_selections:
            pushed = []
            for plan in plans:
                try:
                    pushed.append(push_selections(plan, self.scheme, memo))
                except (AlgebraError, SchemaError, PredicateError):
                    continue  # the plan is dropped
                if steps is not None:
                    steps.append((phase, "push_selections", plan, None, pushed[-1]))
            plans = _dedup(pushed)
        return [made.of(plan) for plan in plans], memo.results

    def _expand(self, graph: Expr) -> list[tuple[Expr, tuple]]:
        """Rule 1: ``graph`` with every external relation replaced by one of
        its default navigations, in all possible ways, each with its
        mapping (sorted ``(alias.attr, qualified name)`` pairs)."""
        scans = [(p, n) for p, n in walk(graph) if isinstance(n, ExternalRelScan)]
        # Self-joins: occurrences of the same relation must navigate under
        # distinct aliases, or rule 4 would wrongly collapse them.
        relation_counts = Counter(scan.name for _, scan in scans)
        choice_lists = []
        for _, scan in scans:
            relation = self.view.relation(scan.name)
            navigations = list(relation.navigations)
            if relation_counts[scan.name] > 1:
                navigations = [
                    realias_navigation(nav, self.scheme, scan.qualifier)
                    for nav in navigations
                ]
            choice_lists.append(navigations)
        total = math.prod(map(len, choice_lists))
        if total > MAX_EXPANSIONS:
            raise OptimizerError(
                f"query has {total} default-navigation combinations "
                f"(cap {MAX_EXPANSIONS})"
            )
        results = []
        for combo in itertools.product(*choice_lists):
            rewritten = graph
            mapping: dict[str, str] = {}
            # replace scans from the deepest paths first so shallower
            # replacements do not invalidate recorded paths
            for (path, scan), nav in sorted(
                zip(scans, combo), key=lambda item: -len(item[0][0])
            ):
                rewritten = replace_at(rewritten, path, nav.body)
                for attr, qualified in nav.mapping:
                    mapping[f"{scan.qualifier}.{attr}"] = qualified
            expanded = substitute_attrs(rewritten, mapping)
            results.append((expanded, tuple(sorted(mapping.items()))))
        return results

    # ------------------------------------------------------------------ #
    # adaptive suffix re-planning
    # ------------------------------------------------------------------ #

    def replan_suffix(
        self,
        suffix: Expr,
        rule: str = "PointerJoin",
        trace: Optional[RewriteTrace] = None,
    ) -> Optional[Expr]:
        """Rewrite one unexecuted plan suffix with a strategy rule.

        The adaptive executor (:mod:`repro.engine.adaptive`) calls this
        when an observed fan-out crosses the cost model's crossover
        mid-query: ``suffix`` is the join (or navigation) subtree it has
        not yet executed, and ``rule`` names the Section 7 strategy to
        switch to (``"PointerJoin"`` for rule 8, ``"PointerChase"`` for
        rule 9) — its entry of :data:`~repro.optimizer.rules.RULES`.
        Returns the first rewriting that validates and costs — the same
        ``_validated`` bar every static candidate clears — or None when
        the rule does not apply.  With ``trace`` the firing is recorded as
        an ``"adaptive re-planning"`` step, so EXPLAIN ANALYZE can show the
        switch in the plan's lineage.
        """
        if rule not in ("PointerJoin", "PointerChase"):
            raise OptimizerError(
                f"unknown strategy rule {rule!r} (PointerJoin or PointerChase)"
            )
        memo = PlanMemo(self.scheme)
        for rewritten in RULES[rule].rewrite(suffix, memo):
            if _validated(rewritten, self.cost_model, memo) is None:
                continue
            if trace is not None:
                step = ("adaptive re-planning", rule, suffix, None, rewritten)
                _observe(trace, [step], [], memo)
            return rewritten
        return None


def _validated(plan: Expr, model: CostModel, memo: PlanMemo) -> Optional[tuple]:
    """(``plan`` as a candidate under ``model``, its schema), or None when
    it does not validate."""
    try:
        schema = memo.schemas.of(plan)
        if not is_computable(plan, memo.scheme):
            return None
        estimate = model.estimate(plan, memo)
        bytes_cost = model.total_bytes(plan, memo)
    except (AlgebraError, SchemaError, PredicateError, OptimizerError):
        return None
    return PlanCandidate(plan, estimate.cost, estimate.cardinality, bytes_cost), schema


def _observe(trace: RewriteTrace, steps, chain: list, memo: PlanMemo) -> None:
    """Record the stages' ``steps`` (see :mod:`~repro.optimizer.rewriter`)
    as the query's lineage: each plan under the query's root ``chain``,
    applications that changed nothing left out."""
    for phase, rule, parent, where, result in steps:
        plan = _attach(chain, result)
        source = None if parent is None else _attach(chain, parent)
        if plan is source:
            continue
        trace.record(
            phase,
            rule,
            memo.key(plan),
            parent=None if source is None else memo.key(source),
            subexpr="" if where is None else memo.key(_attach(chain, where), True),
            expr=plan,
        )


def _attach(chain: list, plan) -> Expr:
    """An enumeration entry's plan under a query's root ``chain``; a plan
    of the π step's, built (any other plan is its own)."""
    if isinstance(plan, _Pi):
        return plan.node()
    if not isinstance(plan, _Expansion):
        return plan
    core, renames = plan.child, dict(plan.mapping)
    for node in reversed(chain):
        core = rename_attrs(node, (core,), renames)
    return core


def _dedup(exprs: Sequence[Expr]) -> list[Expr]:
    """``exprs`` without repeats, first occurrences in order — by identity,
    which for interned nodes is the written form."""
    return list({id(expr): expr for expr in exprs}.values())


class _Expansion(Expr):
    """A core plan of a join graph with the mapping of the rule-1 expansion
    it descends from — what the enumeration table holds.  Rules 4 and 8/9
    rewrite the core, so a core reached under two mappings stays two
    entries until a query's σ/π tells whether they differ."""

    __slots__ = _fields = ("child", "mapping")
    _arity = 1

    def __new__(cls, child: Expr, mapping: tuple):
        return _intern(cls, (cls, id(child), mapping), (child, mapping))


class _Pi(NamedTuple):
    """A plan of the π step, as data: ``σ_preds(π_outputs(core))``, each σ
    as its atoms, innermost first; ``outputs`` is None when ``core`` is the
    whole plan (one with no root π)."""

    core: Expr
    outputs: Optional[tuple]
    preds: tuple = ()

    def node(self) -> Expr:
        plan = self.core if self.outputs is None else Project(self.core, self.outputs)
        for atoms in self.preds:
            plan = Select(plan, Predicate(atoms))
        return plan


class _Plans(dict):
    """One planning call's ``_Pi`` plans, one object per plan: keyed as the
    interned nodes they stand for are (the core by identity, a σ by its
    atoms as written), so identity dedups plans as it dedups nodes."""

    def plan(self, core: Expr, outputs: Optional[tuple], preds: tuple = ()) -> _Pi:
        key = (id(core), outputs, preds)
        found = self.get(key)
        if found is None:  # the entry holds the core, which pins its id
            found = self[key] = _Pi(core, outputs, preds)
        return found

    def of(self, plan: Expr) -> _Pi:
        """``plan``, a node, as data."""
        preds, top = [], plan
        while isinstance(top, Select):
            preds.append(top.predicate.atoms)
            top = top.child
        if not isinstance(top, Project):
            return self.plan(plan, None)
        return self.plan(top.child, top.outputs, tuple(reversed(preds)))


def _in_names(outputs: tuple) -> tuple:
    return tuple(name for _, name in outputs)


def _text(entry: tuple, memo: PlanMemo) -> str:
    """A ranked plan's compact rendering — the final tie-break — composed
    from its core's, which the σ row keeps."""
    plan, priced, schema = entry
    if schema is None:
        return memo.key(priced.expr, compact=True)
    core = memo.facts.get(_compact, plan.core, memo)
    return render_projection(plan.outputs, core, compact=True)


def _compact(core: Expr, memo: PlanMemo) -> str:
    return memo.key(core, compact=True)


def _candidate(entry: tuple, model: CostModel) -> PlanCandidate:
    """A ranked plan, built: a π plan has its core's C(E) and bytes."""
    plan, priced, schema = entry
    if schema is None:
        return priced
    names = _in_names(plan.outputs)
    cardinality = model.projected(priced.cardinality, schema, names)
    expr = Project(plan.core, plan.outputs)
    return PlanCandidate(expr, priced.cost, cardinality, priced.bytes_cost)


#: one list per result, whichever thread builds it first
_PUBLISH = threading.Lock()


class _Ranked(Sequence):
    """A planning call's valid candidates, cheapest first, built on first
    read (``len`` reads none).  ``order`` holds the ranked plans as
    (``_Pi``, its core's candidate, the core's schema) — a plan without a
    root π as (``_Pi``, its candidate, None) — each run of ties
    (``ties``, as ``(start, stop)``) in the order it was found; the
    ``chosen``-th, ``best``, is built already.  Each run is ordered by
    rendered text when read; ``first`` are the texts of a run at position
    0.  The text holds the constants, so a query's plans are its shape's
    under ``binding`` (placeholder → constant) with these runs re-sorted
    (:func:`_bound`)."""

    __slots__ = (
        "order", "ties", "first", "chosen", "best", "model", "binding", "_built"
    )

    def __init__(self, order, ties, first, chosen, best, model, binding=None):
        self.order, self.ties, self.first, self.chosen = order, ties, first, chosen
        self.best, self.model, self.binding = best, model, binding
        self._built: Optional[list] = None

    def member(self, index: int, bound: Optional[dict] = None) -> PlanCandidate:
        """The ``index``-th plan in found order, built (and bound, sharing
        the subtrees in ``bound``)."""
        if index == self.chosen:
            return self.best
        found = _candidate(self.order[index], self.model)
        if self.binding is None:
            return found
        return _bind(found, self.binding, {} if bound is None else bound)

    def _list(self) -> list:
        if self._built is None:
            bound: dict = {}
            found = [self.member(index, bound) for index in range(len(self.order))]
            for start, stop in self.ties:
                found[start:stop] = sorted(
                    found[start:stop], key=lambda c: render_expr(c.expr, compact=True)
                )
            with _PUBLISH:
                if self._built is None:
                    self._built = found
        return self._built

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, index):
        return self._list()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, _Ranked)):
            return self._list() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._list())


def _bound(result: PlannerResult, binding: dict) -> PlannerResult:
    """The result of the query whose shape planned to ``result``, under
    ``binding``: ``best`` bound now, the other candidates when first read.
    A bound plan renders as its shape plan's text with the constants put
    in (:func:`_bound_text`), so only the runs of ties re-sort."""
    if not binding:
        return result
    shaped = result.candidates
    chosen = shaped.chosen
    if shaped.first:
        texts = [_bound_text(text, binding) for text in shaped.first]
        chosen = texts.index(min(texts))
    best = _bind(shaped.member(chosen), binding, {})
    order, ties, model = shaped.order, shaped.ties, shaped.model
    candidates = _Ranked(order, ties, (), chosen, best, model, binding)
    return replace(result, best=best, candidates=candidates)


#: a placeholder, and one as a shape plan's rendering quotes it
_HOLE = "\x00{}"
_QUOTED_HOLE = re.compile(r"'(\x00\d+)'")


def _shape_of(query: ConjunctiveQuery) -> tuple[ConjunctiveQuery, dict]:
    """``query`` with each distinct constant replaced by a placeholder —
    numbered in order of first use, one per (type, value), IN lists at
    their arity — and the binding placeholder → constant."""
    holes: dict = {}

    def hole(value) -> str:
        found = holes.get((type(value), value))
        if found is None:
            found = holes[type(value), value] = _HOLE.format(len(holes))
        return found

    constants = tuple((ref, hole(value)) for ref, value in query.constants)
    memberships = tuple(
        (ref, tuple(map(hole, values))) for ref, values in query.memberships
    )
    if not holes:
        return query, {}
    shape = ConjunctiveQuery(
        query.head, query.occurrences, query.equalities, constants, memberships
    )
    return shape, {place: value for (_, value), place in holes.items()}


def _bind(candidate: PlanCandidate, binding: dict, nodes: dict) -> PlanCandidate:
    return replace(candidate, expr=bind_constants(candidate.expr, binding, nodes))


def _bound_text(text: str, binding: dict) -> str:
    """A shape plan's rendering made the bound plan's: constants are the
    only quoted text in a rendering."""
    return _QUOTED_HOLE.sub(lambda hole: f"'{binding[hole[1]]}'", text)
