"""The planner's table of join-graph enumerations.

Rules 1, 4 and 8/9 read only a query's join graph (what is left below the
root chain of π/σ), so a ``Planner`` derives them once per graph, keeps
the (core plan, attribute mapping) pairs, and re-attaches each query's
σ/π.  The table must be invisible: a long-lived planner answers exactly
what a fresh one answers, whatever it planned before, and the plan-space
cap still counts the query's own plans.
"""

from __future__ import annotations

import random

import pytest

from repro import university
from repro.algebra.ast import Project
from repro.algebra.parser import parse_navigation
from repro.algebra.visitors import walk
from repro.errors import OptimizerError
from repro.optimizer import Planner, PlannerOptions, rewriter
from repro.optimizer import planner as planner_module
from repro.obs.rewrite import RewriteTrace
from repro.optimizer.memo import PlanMemo
from repro.sitegen import UniversityConfig
from repro.views.external import DefaultNavigation, ExternalRelation, ExternalView
from repro.views.sql import parse_query
from repro.views.translate import translate

from tests import plan_space_golden as golden
from tests.test_plan_space_golden import GOLDEN_DIGESTS

#: the phases whose plans the table holds
ENUMERATION = ("expansion (rule 1)", "merge repeated (rule 4)", "join rules (8/9)")


def _graphs(planner: Planner) -> list:
    """The join-graph enumerations ``planner`` keeps, as (entries, steps)."""
    return planner._table.rows(planner._enumerate)


@pytest.fixture(scope="module")
def calls():
    return golden.calls()


@pytest.fixture(scope="module")
def env():
    return university(UniversityConfig())


def test_long_lived_planners_plan_what_fresh_ones_plan(calls):
    """One planner per environment and options variant plans the golden
    corpus twice in a seeded shuffle — cold, warm and traced calls
    interleaved — and every answer equals a fresh planner's; the digests
    recomputed from its answers are the committed ones."""
    planners: dict = {}
    expected: dict[int, tuple] = {}
    order = list(range(len(calls))) * 2
    random.Random(25).shuffle(order)
    for index in order:
        call = calls[index]
        key = (id(call.env), call.options)
        if key not in planners:
            planners[key] = golden.fresh_planner(call)
        if index not in expected:
            expected[index] = golden.value(call, golden.fresh_planner(call))
        assert golden.value(call, planners[key]) == expected[index], call[:2]
    values = [expected[index] for index in range(len(calls))]
    assert golden.digests(calls, values) == GOLDEN_DIGESTS
    assert all(_graphs(planner) for planner in planners.values())


def test_renderings_are_injective_over_every_plan_of_the_corpus(calls, monkeypatch):
    """Deduplication is by identity; it picks the plans rendering-based
    deduplication picked as long as no two distinct nodes one planning
    call sees render alike.  Every plan a closure or a dedup of the
    corpus sees (the π step's, as the nodes they stand for), and every
    subtree of it, is checked."""
    seen: list = []
    closure, dedup = rewriter.closure, planner_module._dedup

    def recording_closure(exprs, *args):
        exprs = list(exprs)
        found = closure(exprs, *args)
        seen.extend(exprs + found)
        return found

    def recording_dedup(exprs):
        # the π step dedups its plans as data: check the nodes they stand for
        seen.extend(
            plan.node() if isinstance(plan, planner_module._Pi) else plan
            for plan in exprs
        )
        return dedup(exprs)

    monkeypatch.setattr(rewriter, "closure", recording_closure)
    monkeypatch.setattr(planner_module, "_dedup", recording_dedup)
    checked = 0
    for call in calls:
        golden.value(call, golden.fresh_planner(call))
        nodes = {
            id(node): node
            for plan in seen
            for _, node in walk(plan)
            if not isinstance(node, planner_module._Expansion)
        }
        memo = PlanMemo(call.env.scheme)
        assert len({memo.key(node) for node in nodes.values()}) == len(nodes)
        checked += len(nodes)
        seen.clear()
    assert checked > 100_000


def test_each_join_graph_is_enumerated_once(env, monkeypatch):
    """The ad-hoc sample's 416 queries share four join graphs: four
    enumerations.  Statistics are part of the enumeration (rule 4 checks
    uniqueness with them), so the planner ``refresh_statistics`` builds
    derives them again."""
    derived: list = []
    expand = Planner._expand

    def counted(self, graph):
        derived.append(graph)
        return expand(self, graph)

    monkeypatch.setattr(Planner, "_expand", counted)
    queries = golden.adhoc_queries(env)
    for sql in queries:
        env.plan(sql)
    assert len(derived) == len(_graphs(env.planner)) == 4
    first = env.planner
    env.refresh_statistics()
    assert env.planner is not first and not _graphs(env.planner)
    for sql in queries:
        env.plan(sql)
    assert len(derived) == 8


def _assert_plans_as_fresh(planner: Planner, expr, sibling) -> None:
    """``expr``'s plan space on ``planner`` after it planned ``sibling`` (an
    expression over the same join graph) is a fresh planner's, and a traced
    run's, which reads tables of its own."""
    planner.plan_expr(sibling)
    fresh = Planner(planner.view, planner.cost_model)
    traced = fresh.plan_expr(expr, trace=RewriteTrace())
    space = golden._space(planner.plan_expr(expr))
    assert space == golden._space(fresh.plan_expr(expr)) == golden._space(traced)


def _translated(env, sql: str):
    return translate(env.sql(sql), env.view)


@pytest.mark.parametrize(
    "sql, sibling",
    [
        (  # a self-join: each occurrence navigates under its own aliases
            "SELECT a.PName FROM ProfDept a, ProfDept b WHERE a.PName = b.PName "
            "AND a.DName = 'Computer Science' AND b.DName = 'Mathematics'",
            "SELECT b.PName FROM ProfDept a, ProfDept b WHERE a.PName = b.PName "
            "AND a.DName = 'Physics'",
        ),
        (  # no WHERE: the root chain is one projection
            "SELECT PName FROM Professor",
            "SELECT Rank, email FROM Professor",
        ),
        (  # only join equalities: no selection either
            "SELECT Professor.Rank FROM Professor, ProfDept "
            "WHERE Professor.PName = ProfDept.PName",
            "SELECT ProfDept.DName FROM Professor, ProfDept "
            "WHERE Professor.PName = ProfDept.PName AND Professor.Rank = 'Full'",
        ),
    ],
)
def test_a_query_after_its_sibling_plans_as_fresh(env, sql, sibling):
    planner = Planner(env.view, env.cost_model)
    _assert_plans_as_fresh(planner, _translated(env, sql), _translated(env, sibling))
    assert len(_graphs(planner)) == 1


def test_an_expression_without_a_root_chain(env):
    """``plan_expr`` on a bare join graph: nothing to re-attach, each
    core of the table is a plan."""
    query = env.sql(golden.adhoc_queries(env)[0])
    graph = translate(query, env.view).child
    assert not isinstance(graph, Project)
    planner = Planner(env.view, env.cost_model)
    planner.plan_query(query)
    _assert_plans_as_fresh(planner, graph, graph)


def test_an_expression_over_no_external_relation(env):
    """A navigation is its own (only) expansion, under an empty mapping."""
    nav = parse_navigation("DeptListPage.DeptList->ToDept.ProfList->ToProf", env.scheme)
    expr = nav.project("ProfPage.PName", "ProfPage.Rank")
    _assert_plans_as_fresh(Planner(env.view, env.cost_model), expr, expr)


def _twin_view(env) -> ExternalView:
    """R's two default navigations differ only in what ``R.X`` maps to, so
    a query that never reads ``R.X`` has each of its plans from two
    (core, mapping) pairs of the table."""
    nav = parse_navigation("ProfListPage.ProfList->ToProf", env.scheme)
    view = ExternalView(env.scheme)
    view.add(ExternalRelation("R", ("PName", "X"), (
        DefaultNavigation.of(nav, {"PName": "ProfPage.PName", "X": "ProfPage.Rank"}),
        DefaultNavigation.of(nav, {"PName": "ProfPage.PName", "X": "ProfPage.email"}),
    )))
    view.add(ExternalRelation(
        "S", ("PName",), (DefaultNavigation.of(nav, {"PName": "ProfPage.PName"}),)
    ))
    return view


@pytest.mark.parametrize("twin", [False, True])
def test_the_cap_counts_the_query_plans(env, monkeypatch, twin):
    """The closure cap (2 000) raises exactly when the query's own plan
    space after rules 1, 4 and 8/9 exceeds it — however many table pairs
    stand behind those plans.  Rule 7 is off: its closure has a cap of its
    own over other plans."""
    view = _twin_view(env) if twin else env.view
    sql = (
        "SELECT R.PName FROM R, S WHERE R.PName = S.PName"
        if twin else golden.adhoc_queries(env)[5]
    )
    query = parse_query(sql, view)
    options = PlannerOptions(substitute_projections=False)
    traced = Planner(view, env.cost_model, options).plan_query(query, trace=True)
    space = len({
        step.result for step in traced.rewrite_trace.steps if step.phase in ENUMERATION
    })
    warm = Planner(view, env.cost_model, options)
    warm.plan_query(query)
    (pairs, _), = _graphs(warm)
    assert (len(pairs) > space) == twin

    ways = [  # a cold table, a traced run, the warm table
        lambda: Planner(view, env.cost_model, options).plan_query(query),
        lambda: Planner(view, env.cost_model, options).plan_query(query, trace=True),
        lambda: warm.plan_expr(translate(query, view)),
    ]

    def raised(cap: int) -> list[bool]:
        monkeypatch.setattr(rewriter, "MAX_PLANS", cap)
        found = []
        for plan in ways:
            try:
                plan()
            except OptimizerError as exc:
                assert "exceeded" in str(exc)
                found.append(True)
            else:
                found.append(False)
        return found

    assert raised(space) == raised(space + 1) == [False] * 3
    assert raised(space - 1) == raised(1) == [True] * 3
