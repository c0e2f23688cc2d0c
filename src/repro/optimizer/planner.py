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
5 per σ over a graph (``_select``), step 8's ranking per query shape
(``_shape``) and binding the constants per query (``_bind``).  Steps 6–8
read a plan ``π(core)`` through its core: rule 7's substitute for an input
is a function of (core, in-name), rules 3/5 of (core, the core's droppable
prefixes some π input starts with), and π downloads no page, so C(E) and
bytes of ``π(core')`` are ``core'``'s.  What they learn of a core is kept
on the σ's row, and goes with it.  A traced run goes through the same
stages in tables of its own, and its trace records what they found.

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
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

from repro.adm.scheme import WebScheme
from repro.algebra.ast import Expr, ExternalRelScan, Project, Select, _intern
from repro.algebra.computable import is_computable
from repro.algebra.predicates import Predicate
from repro.algebra.printer import render_expr
from repro.algebra.visitors import replace_at, walk
from repro.errors import AlgebraError, OptimizerError, PredicateError, SchemaError
from repro.obs.rewrite import RewriteTrace
from repro.optimizer import rewriter
from repro.optimizer.cost import CacheEstimate, CostModel
from repro.optimizer.memo import PlanMemo, Table
from repro.optimizer.rules import (
    RULES,
    bind_constants,
    eliminate_unused_navigation,
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
                return self._plan(expr, cache_estimate, rewrite_trace, memo).result
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
        return self._plan(expr, cache_estimate, trace, memo).result

    # ------------------------------------------------------------------ #
    # the stages
    # ------------------------------------------------------------------ #

    def _bind(self, query: ConjunctiveQuery, cache_estimate, memo) -> PlannerResult:
        """Per query: its shape's result with the constants bound."""
        shape, binding = _shape_of(query)
        shaped = memo.table.get(self._shape, shape, cache_estimate, memo)
        return shaped.bind(binding, self.scheme)

    def _shape(self, shape: ConjunctiveQuery, cache_estimate, memo) -> "_Shaped":
        """Per query shape: its plan, ranked."""
        return self._plan(translate(shape, self.view), cache_estimate, None, memo)

    def _plan(
        self,
        expr: Expr,
        cache_estimate: Optional[CacheEstimate],
        trace: Optional[RewriteTrace],
        memo: PlanMemo,
    ) -> "_Shaped":
        """:meth:`plan_expr`, with what binding its result needs (see
        ``_Shaped``).  Everything derived per node lives in ``memo``, the
        stages' rows in ``memo.table``; ``trace`` records what they found."""
        opts = self.options
        # the root chain of π/σ (``translate`` emits one) over the join graph
        chain, graph = [], expr
        while isinstance(graph, (Project, Select)):
            chain.append(graph)
            graph = graph.child
        # steps 2-4: rules 1, 4 and 8/9, per join graph
        entries, enumerated = memo.table.get(self._enumerate, graph, memo)
        steps: list = []  # what the stages below find, as ``rewriter`` notes
        # step 5: rule 6, per σ over the graph (its row keeps core facts)
        plans, memo.facts = self._pushed(chain, entries, memo, steps)

        # step 6: rule 7 — substitute projections; it rewrites the root π only
        def substitutions(plan: Expr) -> list:
            top = _root_projection(plan)
            if top is None:
                return []

            def source(name: str) -> Optional[str]:
                return memo.facts.get(projection_source, top.child, name, memo)

            return [
                ("ProjectionSubstitution", top, _below(plan, rewritten))
                for rewritten in substitute_projection(top, source)
            ]

        if opts.substitute_projections:
            phase = "projection substitution (rule 7)"
            plans = rewriter.saturate(
                plans, substitutions, rewriter.MAX_PLANS, steps, phase
            )
        # step 7: rules 5/3 — eliminate unnecessary navigations
        if opts.eliminate_navigations:
            phase = "eliminate navigation (rules 3/5)"
            plans = _improve(plans, eliminate_unused_navigation, phase, memo, steps)
        final = _dedup(plans)
        if trace is not None:
            _observe(trace, itertools.chain(enumerated, steps), chain, memo)
        # step 8: validate, cost, choose (cache-aware when an estimate is
        # given: the effective per-access page cost shrinks by the expected
        # hit rate of the accessed page-scheme).  π downloads no page and
        # adds its 0.0 bytes first, so a π plan has its core's C(E) and
        # bytes; only its schema check and cardinality are its own
        model = self.cost_model
        if cache_estimate is not None:
            model = model.with_cache(cache_estimate)
        candidates, keys = [], {}
        for plan in final:
            top = plan if isinstance(plan, Project) else None
            core = plan if top is None else plan.child
            # (a plan without a root π is not a query's: validated per call)
            facts = memo.results if top is None else memo.facts
            checked = facts.get(_validated, core, self.cost_model, memo)
            names = () if top is None else top.in_names()
            if checked is None or any(name not in checked[1] for name in names):
                continue
            cold, schema = checked
            priced = cold
            if cache_estimate is not None:  # priced per call
                repriced = _validated(core, model, memo)
                if repriced is None:
                    continue
                priced = repriced[0]
            if top is not None:
                cardinality = model.projected(priced.cardinality, schema, names)
                priced = replace(priced, expr=plan, cardinality=cardinality)
            candidates.append(priced)
            # priced ties (a full cache prices every access alike) keep their
            # cold order: the cheapest plan if the cache turns out stale
            keys[id(priced)] = (
                (priced.cost, priced.bytes_cost)
                if cache_estimate is None
                else (priced.cost, cold.cost, priced.bytes_cost, cold.bytes_cost)
            )
        if not candidates:
            raise OptimizerError(
                "no valid execution plan survived rewriting; check that "
                "the view's default navigations cover the queried attributes"
            )
        # rank, then break each run of ties on the compact rendering; both
        # sorts are stable, so plans that render alike keep their order
        candidates.sort(key=lambda c: keys[id(c)])
        ranked, ties = [], []
        for _, run in itertools.groupby(candidates, key=lambda c: keys[id(c)]):
            run = tuple(run)
            if len(run) > 1:
                ties.append((len(ranked), run))
                run = sorted(run, key=lambda c: memo.key(c.expr, compact=True))
            ranked.extend(run)
        candidates = ranked
        first = ()
        if ties and ties[0][0] == 0:
            first = tuple(memo.key(c.expr, compact=True) for c in ties[0][1])
        uncached_cost = None if cache_estimate is None else keys[id(candidates[0])][1]
        result = PlannerResult(
            best=candidates[0],
            candidates=candidates,
            generated=len(final),
            cache_estimate=cache_estimate,
            uncached_cost=uncached_cost,
            rewrite_trace=trace,
        )
        return _Shaped(result, tuple(ties), first)

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
        the atoms left for above the π); the attributes the atoms read; and
        the table of what rules 7 and 3/5 and validation learn of the
        cores, which goes with the row."""
        sigma = [node] if isinstance(node, Select) else []
        graph = node.child if sigma else node
        rows, attrs = [], set()
        for entry in memo.table.get(self._enumerate, graph, memo)[0]:
            core, atoms, placed = _attach(sigma, entry), (), 0
            if self.options.push_selections:
                try:
                    core, atoms, placed = push_selections_below(core, memo)
                except (AlgebraError, SchemaError, PredicateError):
                    continue  # as ``_improve`` drops the plan
            rows.append((entry, core, atoms[placed:]))
            attrs.update(attr for atom in atoms for attr in atom.attrs())
        return rows, frozenset(attrs), Table()

    def _pushed(self, chain: list, entries: list, memo: PlanMemo, steps: list):
        """Step 5, rule 6: the query's plans over its graph's ``entries``.
        Pushing selections in ``π(e)`` is ``π`` over ``e`` pushed, under one
        σ per atom ``e`` does not provide, as long as ``π`` renames no atom's
        attribute; so over the π(σ(graph)) ``translate`` emits, the query
        puts its π on its σ's row (and keeps its cores' facts in the row's
        table), and any other chain is attached and pushed entry by entry."""
        phase = "push selections (rule 6)"
        kinds, cap = tuple(map(type, chain)), rewriter.MAX_PLANS
        # the cap counts the query's own plans: past it, the row is not used
        if kinds in ((Project,), (Project, Select)) and len(entries) <= cap:
            root = chain[0]
            rows, attrs, facts = memo.table.get(self._select, root.child, memo)
            if not any(out in attrs for out, _ in root.outputs):
                plans = []
                for entry, core, unplaced in rows:
                    plan = rename_attrs(root, (core,), dict(entry.mapping))
                    for atom in unplaced:
                        plan = Select(plan, Predicate([atom]))
                    plans.append(plan)
                    steps.append((phase, "push_selections", entry, None, plan))
                return _dedup(plans), facts
        plans = _dedup([_attach(chain, entry) for entry in entries])
        if len(plans) > cap:
            raise OptimizerError(
                f"rewrite closure exceeded {cap} plans; "
                "the query is too irregular for exhaustive enumeration"
            )
        if self.options.push_selections:
            plans = _dedup(_improve(plans, push_selections, phase, memo, steps))
        return plans, memo.results

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


def _improve(plans, improve, phase: str, memo: PlanMemo, steps: list) -> list[Expr]:
    """An improvement pass, ``improve(plan, scheme, memo)``, over every plan,
    dropping the ones it cannot handle; each application noted in
    ``steps``."""
    results = []
    for plan in plans:
        try:
            results.append(improve(plan, memo.scheme, memo))
        except (AlgebraError, SchemaError, PredicateError):
            continue
        steps.append((phase, improve.__name__, plan, None, results[-1]))
    return results


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
            subexpr="" if where is None else memo.key(where, compact=True),
            expr=plan,
        )


def _attach(chain: list, plan: Expr) -> Expr:
    """An enumeration entry's plan under a query's root ``chain`` (any
    other plan is its own)."""
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


def _root_projection(plan: Expr) -> Optional[Project]:
    """The π below ``plan``'s root σs, if any — the one rule 7 rewrites: a
    translated query has one π, and view navigations carry none."""
    while isinstance(plan, Select):
        plan = plan.child
    return plan if isinstance(plan, Project) else None


def _below(plan: Expr, top: Project) -> Expr:
    """``plan`` with its root π (below its root σs) replaced by ``top``."""
    if isinstance(plan, Project):
        return top
    return plan.with_children((_below(plan.child, top),))


class _Expansion(Expr):
    """A core plan of a join graph with the mapping of the rule-1 expansion
    it descends from — what the enumeration table holds.  Rules 4 and 8/9
    rewrite the core, so a core reached under two mappings stays two
    entries until a query's σ/π tells whether they differ."""

    __slots__ = _fields = ("child", "mapping")
    _arity = 1

    def __new__(cls, child: Expr, mapping: tuple):
        return _intern(cls, (cls, id(child), mapping), (child, mapping))


class _Shaped(NamedTuple):
    """A planning call's result with what binding it needs: ``ties``, each
    run of candidates the ranking ordered by rendered text alone, as
    ``(position, the run in pre-text order)``, and ``first``, the texts of
    a run at position 0.  The text holds the constants, so a binding
    re-sorts these runs and only these."""

    result: PlannerResult
    ties: tuple
    first: tuple

    def bind(self, binding: dict, scheme: WebScheme) -> PlannerResult:
        """The result of the query whose shape this is, under ``binding``
        (placeholder → constant): ``best`` bound now, the other candidates
        when first read."""
        if not binding:
            return self.result
        best = self.result.best
        if self.first:
            texts = [_bound_text(text, binding) for text in self.first]
            best = self.ties[0][1][texts.index(min(texts))]
        best = _bind(best, binding, {})
        return replace(
            self.result, best=best, candidates=_Bound(self, binding, scheme, best)
        )


class _Bound(Sequence):
    """A shape's candidates with the query's constants bound, cheapest
    first.  Bound on first read — ``len`` reads none — after which the
    shape is let go."""

    __slots__ = ("_size", "_source", "_bound")

    def __init__(self, shaped: _Shaped, binding: dict, scheme, best: PlanCandidate):
        self._size = len(shaped.result.candidates)
        self._source: Optional[tuple] = (shaped, binding, scheme, best)
        self._bound: Optional[list] = None

    def _list(self) -> list:
        found = self._bound
        if found is None:
            source = self._source
            if source is None:  # another thread bound them meanwhile
                return self._bound
            (result, ties, _), binding, scheme, best = source
            memo = PlanMemo(scheme)

            def text(candidate: PlanCandidate) -> str:
                return _bound_text(memo.key(candidate.expr, compact=True), binding)

            order = list(result.candidates)
            for start, run in ties:
                order[start : start + len(run)] = sorted(run, key=text)
            nodes: dict = {}
            found = [_bind(c, binding, nodes) for c in order]
            found = [best if c.expr is best.expr else c for c in found]
            self._bound, self._source = found, None
        return found

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, _Bound)):
            return self._list() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._list())


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
