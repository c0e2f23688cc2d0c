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
8. estimates C(E) for every surviving candidate and picks the cheapest.

Candidates that became ill-typed (e.g. rule 9 dropped a side whose
attributes the query still needs — the paper's π_X side condition) are
silently discarded during validation.

Steps 2–4 read only the *join graph* below the query's root π/σ, so a
planner runs them once per graph and re-attaches each query's σ/π; step 5
reads the σ too, and runs once per σ over a graph.

The core law: steps 6–8 read a plan ``π(core)`` through its core.  Rule 7
rewrites only the root π, and what it substitutes for an input is a
function of (core, in-name); rules 3/5 are a function of (core, hits), the
core's droppable prefixes some π input starts with; and π downloads no
page and adds its 0.0 bytes first, so validation, C(E) and bytes of
``π(core')`` are ``core'``'s but for π's own schema check and cardinality.
The σ's rule-6 row keeps these per core, and they go when it goes.

The shape law: C(E) reads only distinct counts (``1/c`` per equality with
a constant, ``k/c`` per IN list of ``k`` values), never a constant's value,
so a query's ranked candidate list belongs to its *shape* — the query with
each distinct constant replaced by a placeholder.  ``plan_query`` plans
the shape, once per planner, and binds the query's constants into the
result; only the final tie-break, on rendered text, reads the constants,
and binding redoes it.
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
from repro.algebra.printer import render_expr
from repro.algebra.visitors import replace_at, walk
from repro.errors import (
    AlgebraError,
    OptimizerError,
    PredicateError,
    SchemaError,
)
from repro.obs.rewrite import RewriteTrace
from repro.optimizer import rewriter
from repro.optimizer.cost import CacheEstimate, CostModel
from repro.optimizer.memo import PlanMemo, remembered
from repro.optimizer.rules import (
    JoinPushdown,
    MergeRepeatedNavigation,
    PointerChase,
    PointerJoin,
    bind_constants,
    droppable_prefixes,
    eliminate_below,
    navigation_hits,
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

#: Entries each table of a planner keeps; the oldest go first.
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
        lines = [
            f"{len(self.candidates)} valid plans "
            f"(of {self.generated} generated):"
        ]
        for i, cand in enumerate(self.candidates[:limit]):
            marker = "→" if cand is self.best else " "
            lines.append(
                f" {marker} [{cand.cost:10.2f} pages] "
                f"{cand.render(scheme=scheme)}"
            )
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
        #: (query, estimate) → its ``PlannerResult``, constants bound
        self._results: dict = {}
        #: (query shape, estimate) → ``_Shaped``, the shape's own result
        self._shapes: dict = {}
        #: ``id(join graph)`` → (graph, its enumeration as ``_Expansion``s)
        self._enumerations: dict = {}
        #: ``id(σ over a join graph)`` → (σ, its entries after rule 6, the
        #: attributes the σ's atoms read, what steps 6-8 learn of its cores:
        #: ``remembered``'s table); see ``_pushed``
        self._pushes: dict = {}
        self._cache_lock = threading.Lock()

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
        rules produced the chosen plan.  Traced runs plan the query itself
        and bypass every table (the trace is per-run state); the plan
        chosen is identical either way.

        Untraced, the planner plans the query's *shape* — the query with
        each distinct constant replaced by a placeholder — and binds the
        constants into the shape's result: C(E) reads no constant's value.
        Results are memoized per query and per shape (each with its
        estimate), each join graph's enumeration (rules 1, 4 and 8/9) and
        each σ's pushes (rule 6) with rules 7 and 3/5 and validation of
        their cores, per planner instance: a planner is bound
        to one statistics snapshot, which rule 4 reads; rebuilding it — as
        ``SiteEnv.refresh_statistics`` does — drops them all.
        """
        if trace:
            memo = PlanMemo(self.scheme)
            pricing = [memo]  # steps are priced through the call's memo,
            rewrite_trace = RewriteTrace(
                cost_fn=lambda expr: self.cost_model.estimate(expr, *pricing).cost
            )
            try:
                expr = translate(query, self.view)
                return self._plan(expr, cache_estimate, rewrite_trace, memo).result
            finally:
                pricing.clear()  # which dies with the call, not with the trace
        key = (query, cache_estimate)
        result = self._results.get(key)
        if result is None:
            shape, binding = _shape_of(query)
            shaped = self._shapes.get((shape, cache_estimate))
            if shaped is None:
                expr = translate(shape, self.view)
                shaped = self._plan(expr, cache_estimate, None, PlanMemo(self.scheme))
            # a hit is remembered again, as the newest: the results table
            # then holds no shape this table has let go
            self._remember(self._shapes, (shape, cache_estimate), shaped)
            result = shaped.bind(binding, self.scheme)
            self._remember(self._results, key, result)
        return result

    def _remember(self, table: dict, key, value) -> None:
        with self._cache_lock:
            table.pop(key, None)
            if len(table) >= MAX_MEMO:
                del table[next(iter(table))]  # the oldest
            table[key] = value

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
        executes each one to enforce exactly that.  ``limit`` keeps only
        the ``limit`` cheapest candidates."""
        candidates = self.plan_query(query, cache_estimate).candidates
        if limit is not None and limit >= 1:
            candidates = candidates[:limit]
        return list(candidates)

    def plan_expr(
        self,
        expr: Expr,
        cache_estimate: Optional[CacheEstimate] = None,
        trace: Optional[RewriteTrace] = None,
    ) -> PlannerResult:
        """Plan a relational-algebra expression over external relations."""
        return self._plan(expr, cache_estimate, trace, PlanMemo(self.scheme)).result

    def _plan(
        self,
        expr: Expr,
        cache_estimate: Optional[CacheEstimate],
        trace: Optional[RewriteTrace],
        memo: PlanMemo,
    ) -> "_Shaped":
        """:meth:`plan_expr`, with what binding its result needs (see
        ``_Shaped``).  Everything derived per node lives in ``memo``."""
        opts = self.options
        # the root chain of π/σ (``translate`` emits one) over the join graph
        chain, graph = [], expr
        while isinstance(graph, (Project, Select)):
            chain.append(graph)
            graph = graph.child

        def attach(core: Expr, mapping: tuple) -> Expr:
            renames = dict(mapping)
            for node in reversed(chain):
                core = rename_attrs(node, (core,), renames)
            return core

        def saturate(plans, rules, phase, cap=rewriter.MAX_PLANS):
            if not rules:
                return plans
            return rewriter.closure(plans, rules, self.scheme, cap, trace, phase, memo)

        def enumerate_graph(wrap) -> list[Expr]:
            # step 2: rule 1, each expansion as ``wrap(core, mapping)``
            expansions = self._expand(graph)
            plans = []
            for core, mapping in expansions:
                plans.append(wrap(core, mapping))
                if trace is not None:  # rule-1 expansions are lineage roots
                    rule = "expansion (rule 1)", "DefaultNavigation"
                    trace.record(*rule, memo.key(plans[-1]), expr=plans[-1])
            # steps 3, 4: rules 4 and 8/9 rewrite joins, never what ``wrap``
            # put above a core.  Behind each of a query's plans is at most one
            # entry per expansion, so the query's own plans are capped below
            cap = rewriter.MAX_PLANS * len(expansions)
            plans = saturate(_dedup(plans), merge, "merge repeated (rule 4)", cap)
            return saturate(plans, join_rules, "join rules (8/9)", cap)

        merge = []
        if opts.merge_repeated:
            merge = [MergeRepeatedNavigation(stats=self.cost_model.stats)]
        join_rules = [JoinPushdown()] if opts.join_pushdown else []
        join_rules += merge
        if opts.pointer_join:
            join_rules.append(PointerJoin())
        if opts.pointer_chase:
            join_rules.append(PointerChase())
        # steps 2-4 read the join graph only: untraced, they run once per
        # graph and each query re-attaches its σ/π to the table's entries
        # (step 5 reads the σ too: where it can, it runs once per σ, and the
        # σ's row keeps what steps 6-8 learn of its cores)
        pushed, cores = None, memo.results
        if trace is None:
            found = self._enumerations.get(id(graph))
            if found is None:
                found = (graph, enumerate_graph(_Expansion))
                self._remember(self._enumerations, id(graph), found)
            if opts.push_selections:
                pushed = self._pushed(chain, found[1], memo)
            if pushed is not None:
                plans, cores = pushed
            else:
                plans = _dedup([attach(p.child, p.mapping) for p in found[1]])
        else:
            plans = enumerate_graph(attach)
        if len(plans) > rewriter.MAX_PLANS:
            raise OptimizerError(
                f"rewrite closure exceeded {rewriter.MAX_PLANS} plans; "
                "the query is too irregular for exhaustive enumeration"
            )
        # step 5: rule 6 — push selections
        if opts.push_selections and pushed is None:
            phase = "push selections (rule 6)"
            plans = _dedup(_try_map(plans, push_selections, memo, trace, phase))

        def fact(fn, core: Expr, *args):  # ``fn(core, *args, memo)``, kept
            return remembered(cores, fn, core, *args, memo)

        # step 6: rule 7 — substitute projections; it rewrites the root π only
        def substitutions(plan: Expr) -> list:
            top = _root_projection(plan)
            if top is None:
                return []
            return [
                ("ProjectionSubstitution", top, _below(plan, rewritten))
                for rewritten in substitute_projection(
                    top, lambda name: fact(projection_source, top.child, name)
                )
            ]

        if opts.substitute_projections:
            phase = "projection substitution (rule 7)"
            plans = rewriter.saturate(
                plans, substitutions, rewriter.MAX_PLANS, trace, phase, memo
            )

        # step 7: rules 5/3 — eliminate unnecessary navigations (named as
        # ``rules.eliminate_unused_navigation``, whose lineage steps it records)
        def eliminate_unused_navigation(plan: Expr, *_) -> Expr:
            if not isinstance(plan, Project):
                return plan
            prefixes = fact(droppable_prefixes, plan.child)
            hits = navigation_hits(prefixes, plan.in_names())
            return Project(fact(eliminate_below, plan.child, hits), plan.outputs)

        if opts.eliminate_navigations:
            phase = "eliminate navigation (rules 3/5)"
            plans = _try_map(plans, eliminate_unused_navigation, memo, trace, phase)
        final = _dedup(plans)
        # step 8: validate, cost, choose (cache-aware when an estimate is
        # given: the effective per-access page cost shrinks by the expected
        # hit rate of the accessed page-scheme).  π downloads no page and
        # adds its 0.0 bytes first, so a π plan has its core's C(E) and
        # bytes; only its schema check and cardinality are its own
        model = (
            self.cost_model.with_cache(cache_estimate)
            if cache_estimate is not None
            else self.cost_model
        )
        candidates, keys = [], {}
        for plan in final:
            top = plan if isinstance(plan, Project) else None
            core = plan if top is None else plan.child
            checked = (  # a plan without a root π is not a query's: per call
                _validated(plan, self.cost_model, memo)
                if top is None
                else fact(_validated, core, self.cost_model)
            )
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
        uncached_cost = None
        if cache_estimate is not None:
            uncached_cost = keys[id(candidates[0])][1]
        result = PlannerResult(
            best=candidates[0],
            candidates=candidates,
            generated=len(final),
            cache_estimate=cache_estimate,
            uncached_cost=uncached_cost,
            rewrite_trace=trace,
        )
        return _Shaped(result, tuple(ties), first)

    def _pushed(
        self, chain: list, entries: list, memo: PlanMemo
    ) -> Optional[tuple[list[Expr], dict]]:
        """Step 5 over a join graph's enumeration ``entries`` from the
        rule-6 table, with the table the σ keeps of its cores (see
        ``remembered``), or None where the table does not apply.

        Rule 6 reads a plan's σ, not its root π: pushing selections in
        ``π(e)`` is ``π`` over ``e`` pushed, under one σ per atom ``e``
        does not provide, as long as ``π`` renames no atom's attribute.
        So the table keeps, per σ over the graph (``id`` of the root π's
        child, which it pins), each entry pushed under the σ, and a query
        puts its own π on top."""
        kinds = tuple(map(type, chain))
        if kinds not in ((Project,), (Project, Select)):
            return None  # not the π(σ(graph)) ``translate`` emits
        if len(entries) > rewriter.MAX_PLANS:
            return None  # the cap counts the query's own plans
        root, sigma = chain[0], chain[1:]
        found = self._pushes.get(id(root.child))
        if found is None:
            rows, attrs = [], set()
            for entry in entries:
                renames = dict(entry.mapping)
                core = entry.child
                for node in sigma:
                    core = rename_attrs(node, (core,), renames)
                try:
                    core, atoms, placed = push_selections_below(core, memo)
                except (AlgebraError, SchemaError, PredicateError):
                    continue  # as ``_try_map`` drops it
                rows.append((core, atoms[placed:], entry.mapping))
                attrs.update(attr for atom in atoms for attr in atom.attrs())
            found = (root.child, rows, frozenset(attrs), {})
            self._remember(self._pushes, id(root.child), found)
        _, rows, attrs, cores = found
        if any(out in attrs for out, _ in root.outputs):
            return None
        plans = []
        for core, unplaced, mapping in rows:
            plan = rename_attrs(root, (core,), dict(mapping))
            for atom in unplaced:
                plan = Select(plan, Predicate([atom]))
            plans.append(plan)
        return _dedup(plans), cores

    # ------------------------------------------------------------------ #
    # rule 1: expansion
    # ------------------------------------------------------------------ #

    def _expand(self, graph: Expr) -> list[tuple[Expr, tuple]]:
        """Rule 1: ``graph`` with every external relation replaced by one of
        its default navigations, in all possible ways, each with its
        mapping (sorted ``(alias.attr, qualified name)`` pairs)."""
        scans = [
            (path, node)
            for path, node in walk(graph)
            if isinstance(node, ExternalRelScan)
        ]
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
        rule 9).  Returns the first rewriting that validates and costs —
        the same ``_validated`` bar every static candidate
        clears — or None when the rule does not apply.  With ``trace``
        the firing is recorded as an ``"adaptive re-planning"`` step, so
        EXPLAIN ANALYZE can show the switch in the plan's lineage.
        """
        if rule not in ("PointerJoin", "PointerChase"):
            raise OptimizerError(
                f"unknown strategy rule {rule!r} "
                f"(PointerJoin or PointerChase)"
            )
        rewriter = PointerJoin() if rule == "PointerJoin" else PointerChase()
        memo = PlanMemo(self.scheme)
        for rewritten in rewriter.rewrite(suffix, memo):
            if _validated(rewritten, self.cost_model, memo) is None:
                continue
            if trace is not None:
                trace.record(
                    "adaptive re-planning",
                    rule,
                    memo.key(rewritten),
                    parent=memo.key(suffix),
                    expr=rewritten,
                )
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


def _try_map(
    exprs: Sequence[Expr],
    rewrite,
    memo: PlanMemo,
    trace: Optional[RewriteTrace],
    phase: str,
) -> list[Expr]:
    """Apply an improvement pass (``rewrite(plan, scheme, memo)``) to every
    plan, dropping the ones it cannot handle.

    With ``trace``, every application that actually changed the plan is
    recorded as a lineage step (improvement passes rewrite in place, so
    the output's lineage chains through its input)."""
    results = []
    for expr in exprs:
        try:
            out = rewrite(expr, memo.scheme, memo)
        except (AlgebraError, SchemaError, PredicateError):
            continue
        results.append(out)
        if trace is not None and out is not expr:
            trace.record(
                phase,
                rewrite.__name__,
                memo.key(out),
                parent=memo.key(expr),
                expr=out,
            )
    return results


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

    def __init__(
        self,
        shaped: _Shaped,
        binding: dict,
        scheme: WebScheme,
        best: PlanCandidate,
    ):
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
