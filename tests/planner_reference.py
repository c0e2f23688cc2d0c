"""Steps 5–8 of Algorithm 1 as node passes, kept as the π step's reference.

Every plan of a query is built as nodes, one pass at a time: rule 6
renames the query's π onto each entry's pushed core and wraps it in one σ
per atom the core does not provide; rule 7 saturates the root π's
substitutions through :func:`repro.optimizer.rewriter.saturate`; rules 3/5
rebuild every π-rooted plan through :func:`eliminate_unused_navigation`
(kept here, with :func:`substitute_projection_node`); step 8
validates and prices every survivor, replaces each π plan's cardinality
and breaks every run of ties on its compact rendering.  This is what
:meth:`Planner._project <repro.optimizer.planner.Planner._project>` — which
ranks the same plans as data and builds only the chosen one — must
reproduce: the same ``generated``, candidates (the same interned nodes, in
the same order, with the same cost, bytes and cardinality),
``uncached_cost`` and rewrite-trace steps.  ``tests/test_plan_reference.py``
holds the two against each other.

:func:`plan_query` plans the concrete query (no shapes) through the
planner's rule-1/4/8/9 and rule-6 stages.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Optional

from repro.algebra.ast import Expr, Project, Select
from repro.algebra.predicates import Predicate
from repro.errors import AlgebraError, OptimizerError, PredicateError, SchemaError
from repro.obs.rewrite import RewriteTrace
from repro.optimizer import rewriter
from repro.optimizer.memo import PlanMemo
from repro.optimizer.planner import (
    Planner,
    PlannerResult,
    _attach,
    _dedup,
    _observe,
    _validated,
)
from repro.optimizer.rules import (
    eliminate_unused,
    projection_source,
    push_selections,
    rename_attrs,
    substitute_projection,
)
from repro.views.translate import translate


def plan_query(
    planner: Planner, query, cache_estimate=None, trace: bool = False
) -> PlannerResult:
    """``planner.plan_query(query, cache_estimate, trace)`` by node passes,
    the rows of the stages it shares with the planner in ``planner``'s
    table (so use a planner of its own)."""
    memo = PlanMemo(planner.scheme, planner.cost_model.stats, planner._table)
    rewrite_trace = None
    if trace:
        rewrite_trace = RewriteTrace(
            cost_fn=lambda expr: planner.cost_model.estimate(expr, memo).cost
        )
    expr = translate(query, planner.view)
    return _plan(planner, expr, cache_estimate, rewrite_trace, memo)


def _plan(planner: Planner, expr: Expr, cache_estimate, trace, memo) -> PlannerResult:
    opts = planner.options
    chain, graph = [], expr
    while isinstance(graph, (Project, Select)):
        chain.append(graph)
        graph = graph.child
    entries, enumerated = memo.table.get(planner._enumerate, graph, memo)
    steps: list = []
    plans, memo.facts = _pushed(planner, chain, entries, memo, steps)

    # step 6: rule 7 — substitute projections; it rewrites the root π only
    def substitutions(plan: Expr) -> list:
        top = _root_projection(plan)
        if top is None:
            return []

        def source(name: str) -> Optional[str]:
            return memo.facts.get(projection_source, top.child, name, memo)

        return [
            ("ProjectionSubstitution", top, _below(plan, rewritten))
            for rewritten in substitute_projection_node(top, source)
        ]

    if opts.substitute_projections:
        phase = "projection substitution (rule 7)"
        plans = rewriter.saturate(plans, substitutions, rewriter.MAX_PLANS, steps, phase)
    # step 7: rules 5/3 — eliminate unnecessary navigations
    if opts.eliminate_navigations:
        phase = "eliminate navigation (rules 3/5)"
        plans = _improve(plans, eliminate_unused_navigation, phase, memo, steps)
    final = _dedup(plans)
    if trace is not None:
        _observe(trace, itertools.chain(enumerated, steps), chain, memo)
    # step 8: validate, cost, choose
    model = planner.cost_model
    if cache_estimate is not None:
        model = model.with_cache(cache_estimate)
    candidates, keys = [], {}
    for plan in final:
        top = plan if isinstance(plan, Project) else None
        core = plan if top is None else plan.child
        facts = memo.results if top is None else memo.facts
        checked = facts.get(_validated, core, planner.cost_model, memo)
        names = () if top is None else top.in_names()
        if checked is None or any(name not in checked[1] for name in names):
            continue
        cold, schema = checked
        priced = cold
        if cache_estimate is not None:
            repriced = _validated(core, model, memo)
            if repriced is None:
                continue
            priced = repriced[0]
        if top is not None:
            cardinality = model.projected(priced.cardinality, schema, names)
            priced = replace(priced, expr=plan, cardinality=cardinality)
        candidates.append(priced)
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
    candidates.sort(key=lambda c: keys[id(c)])
    ranked = []
    for _, run in itertools.groupby(candidates, key=lambda c: keys[id(c)]):
        run = tuple(run)
        if len(run) > 1:
            run = sorted(run, key=lambda c: memo.key(c.expr, compact=True))
        ranked.extend(run)
    uncached_cost = None if cache_estimate is None else keys[id(ranked[0])][1]
    return PlannerResult(
        best=ranked[0],
        candidates=ranked,
        generated=len(final),
        cache_estimate=cache_estimate,
        uncached_cost=uncached_cost,
        rewrite_trace=trace,
    )


def _pushed(planner: Planner, chain: list, entries: list, memo, steps: list):
    """Step 5, rule 6, with every plan built as nodes."""
    phase = "push selections (rule 6)"
    kinds, cap = tuple(map(type, chain)), rewriter.MAX_PLANS
    if kinds in ((Project,), (Project, Select)) and len(entries) <= cap:
        root = chain[0]
        rows, attrs, facts = memo.table.get(planner._select, root.child, memo)
        if not any(out in attrs for out, _ in root.outputs):
            plans = []
            for entry, core, unplaced, _ in rows:
                plan = rename_attrs(root, (core,), dict(entry.mapping))
                for atoms in unplaced:
                    plan = Select(plan, Predicate(atoms))
                plans.append(plan)
                steps.append((phase, "push_selections", entry, None, plan))
            return _dedup(plans), facts
    plans = _dedup([_attach(chain, entry) for entry in entries])
    if len(plans) > cap:
        raise OptimizerError(
            f"rewrite closure exceeded {cap} plans; "
            "the query is too irregular for exhaustive enumeration"
        )
    if planner.options.push_selections:
        plans = _dedup(_improve(plans, push_selections, phase, memo, steps))
    return plans, memo.results


def eliminate_unused_navigation(
    expr: Expr, scheme, memo: Optional[PlanMemo] = None
) -> Expr:
    """Rules 3/5 as a node pass: drop the navigations and unnests whose
    attributes are never used above them, under a root projection (any
    other plan is its own)."""
    if not isinstance(expr, Project):
        return expr
    memo = memo or PlanMemo(scheme)
    return Project(eliminate_unused(expr.child, expr.in_names(), memo), expr.outputs)


def substitute_projection_node(node: Project, source) -> list[Project]:
    """Rule 7's rewritings of the projection ``node``, as nodes."""
    found = substitute_projection(node.outputs, source)
    return [Project(node.child, outputs) for outputs in found]


def _improve(plans, improve, phase: str, memo: PlanMemo, steps: list) -> list[Expr]:
    results = []
    for plan in plans:
        try:
            results.append(improve(plan, memo.scheme, memo))
        except (AlgebraError, SchemaError, PredicateError):
            continue
        steps.append((phase, improve.__name__, plan, None, results[-1]))
    return results


def _root_projection(plan: Expr) -> Optional[Project]:
    while isinstance(plan, Select):
        plan = plan.child
    return plan if isinstance(plan, Project) else None


def _below(plan: Expr, top: Project) -> Expr:
    if isinstance(plan, Project):
        return top
    return plan.with_children((_below(plan.child, top),))
