"""The core law: steps 6–8 of Algorithm 1 read a plan ``π(core)`` through
its core.

Rule 7 rewrites only the root π, by a substitution per (core, in-name);
rules 3/5 are a function of (core, hits); validation, C(E) and bytes of
``π(core')`` are ``core'``'s.  A planner keeps these per core on the σ's
rule-6 row; a traced run does too, in tables of its own that die with it.
Both must answer alike — the same interned plans, in the same order, with
the same figures — and the facts must go when their row goes.
"""

from __future__ import annotations

import operator
import sys
import threading
import weakref
from pathlib import Path

import pytest

from repro.errors import OptimizerError
from repro.optimizer import Planner, rewriter
from repro.optimizer import planner as planner_module
from repro.qa.cli import build_site
from repro.views.translate import translate

from tests.plan_space_golden import QA_SITES, _lineage, _warm_estimate

ROOT = Path(__file__).resolve().parent.parent


def _adhoc_workload(seed: int):
    """``adhoc_plan``'s environment and its dealt queries, in order."""
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.workloads import AdhocPlan
    finally:
        sys.path.remove(str(ROOT))
    workload = AdhocPlan(seed)
    workload.setup()
    return workload.env, [query.sql for block in workload.dealt for query in block]


@pytest.fixture(scope="module")
def seed_1():
    return _adhoc_workload(1)


def _figures(result) -> tuple:
    return (
        result.generated,
        [(c.expr, c.cost, c.cardinality, c.bytes_cost) for c in result.candidates],
        result.uncached_cost,
    )


def _same_plans(warm, traced) -> None:
    assert _figures(warm) == _figures(traced)
    assert all(
        w.expr is t.expr for w, t in zip(warm.candidates, traced.candidates)
    )


def _agree(env, queries, warm_every: int = 4) -> None:
    """Every query on the environment's long-lived planner (its tables
    warm from the queries before) against a traced run of a planner of
    its own, cold and, every ``warm_every``-th query, under a warm cache
    estimate."""
    warm = _warm_estimate(env)
    table_free = Planner(env.view, env.cost_model)
    for index, sql in enumerate(queries):
        query = env.sql(sql)
        for estimate in (None, warm) if index % warm_every == 0 else (None,):
            planned = env.planner.plan_query(query, estimate)
            _same_plans(planned, table_free.plan_query(query, estimate, trace=True))
    assert not len(table_free._table) and env.planner._table.rows(env.planner._select)


@pytest.mark.parametrize("seed", [1, 7])
def test_warm_tables_plan_as_a_table_free_traced_run(seed, seed_1):
    env, queries = seed_1 if seed == 1 else _adhoc_workload(seed)
    _agree(env, queries[:300])


@pytest.mark.parametrize("site", QA_SITES)
def test_each_golden_site_plans_as_a_table_free_traced_run(site):
    env, queries = build_site(site)
    _agree(env, list(queries.values()), warm_every=1)


def _depth_first(exprs, one_step, max_plans, steps, phase):
    seen: dict = {}

    def visit(plan):
        for _, _, rewritten in one_step(plan):
            if id(rewritten) not in seen:
                seen[id(rewritten)] = rewritten
                visit(rewritten)

    for expr in exprs:
        seen.setdefault(id(expr), expr)
    for expr in list(seen.values()):
        visit(expr)
    return list(seen.values())


def test_rule_7_enumerates_breadth_first(seed_1, monkeypatch):
    """Ties are broken on the compact rendering, which can collide: the
    order rule 7 finds plans in is then the candidate order.  Seed 1's
    dealt query 25 has tied candidates 15–17 that all render
    ``π_{PName,CName,Session}(…)`` compactly; a depth-first rule 7 puts
    another plan at 16."""
    env, queries = seed_1
    query = env.sql(queries[25])

    def candidate_16():
        planner = Planner(env.view, env.cost_model)
        return planner.plan_query(query).candidates[16].expr.in_names()

    assert candidate_16() == (
        "CoursePage.PName", "SessionPage.CourseList.CName", "CoursePage.Session"
    )
    saturate = rewriter.saturate

    def rule_7_depth_first(exprs, one_step, max_plans, steps, phase):
        walk = _depth_first if phase.startswith("projection") else saturate
        return walk(exprs, one_step, max_plans, steps, phase)

    monkeypatch.setattr(rewriter, "saturate", rule_7_depth_first)
    assert candidate_16() != (
        "CoursePage.PName", "SessionPage.CourseList.CName", "CoursePage.Session"
    )


def test_the_cap_bounds_rule_7(seed_1, monkeypatch):
    """Rule 7's closure raises once it would pass ``MAX_PLANS`` plans — on a
    cold planner, a traced run, and a planner whose σ row is warm."""
    env, queries = seed_1
    query = env.sql(queries[25])
    sizes: list = []
    failed: list = []
    saturate = rewriter.saturate

    def counted(exprs, one_step, max_plans, steps, phase):
        exprs = list(exprs)
        try:
            found = saturate(exprs, one_step, max_plans, steps, phase)
        except OptimizerError:
            failed.append(phase)
            raise
        if phase.startswith("projection"):
            sizes.append((len(exprs), len(found)))
        return found

    monkeypatch.setattr(rewriter, "saturate", counted)
    warm = Planner(env.view, env.cost_model)
    warm.plan_query(query)
    ((before, after),) = sizes
    assert before < after - 1
    ways = [
        lambda: Planner(env.view, env.cost_model).plan_query(query),
        lambda: Planner(env.view, env.cost_model).plan_query(query, trace=True),
        lambda: warm.plan_expr(translate(query, env.view)),
    ]
    monkeypatch.setattr(rewriter, "MAX_PLANS", after)
    for plan in ways:
        plan()
    monkeypatch.setattr(rewriter, "MAX_PLANS", after - 1)
    for plan in ways:
        with pytest.raises(OptimizerError, match="exceeded"):
            plan()
    assert failed == ["projection substitution (rule 7)"] * 3


def test_a_cores_facts_go_with_its_sigma_row(seed_1, monkeypatch):
    """The facts live on the σ's rule-6 row: kept while it is, found again
    by the next projection over the σ, and gone when the row is evicted."""
    env, queries = seed_1
    monkeypatch.setattr(planner_module, "MAX_MEMO", 2)
    asked: list = []
    source = planner_module.projection_source

    def counted(core, in_name, memo):
        asked.append(in_name)
        return source(core, in_name, memo)

    monkeypatch.setattr(planner_module, "projection_source", counted)
    planner = Planner(env.view, env.cost_model)
    expr = translate(env.sql(queries[0]), env.view)
    sigma = weakref.ref(expr.child)
    planner.plan_expr(expr)
    ((_, _, facts),) = planner._table.rows(planner._select)
    assert asked and facts.rows(counted)
    first = len(asked)
    planner.plan_expr(expr)
    assert len(asked) == first  # kept on the row
    others: list = []  # expressions over three other σs
    for sql in queries[1:]:
        other = translate(env.sql(sql), env.view)
        if all(other.child is not e.child for e in [expr] + others):
            others.append(other)
            planner.plan_expr(other)
        if len(others) == 3:
            break
    assert all(row is not facts for *_, row in planner._table.rows(planner._select))
    del expr, facts
    assert sigma() is None  # nothing else held the row
    before = len(asked)
    planner.plan_expr(translate(env.sql(queries[0]), env.view))
    assert len(asked) - before == first  # derived again


def _switching(threads: list) -> None:
    """Run ``threads`` to the end, switching between them every 1 µs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_threads_share_the_core_facts(seed_1):
    """Four threads plan distinct ad-hoc queries through one cold planner,
    so they fill one σ row's facts at once, the fourth traced; then two
    threads read every result's lazily built candidates at once.  Every
    answer is serial planning's, with the same nodes, and both readers get
    one list per result."""
    env, queries = seed_1
    queries = queries[:200]
    traced = [index % 4 == 3 for index in range(len(queries))]
    serial = Planner(env.view, env.cost_model)
    expected = [
        serial.plan_query(env.sql(sql), trace=trace)
        for sql, trace in zip(queries, traced)
    ]
    shared = Planner(env.view, env.cost_model)
    found: dict = {}
    errors: list = []

    def plan(offset: int) -> None:
        try:
            for index in range(offset, len(queries), 4):
                query = env.sql(queries[index])
                found[index] = shared.plan_query(query, trace=traced[index])
        except Exception as exc:  # reported below
            errors.append(exc)

    _switching([threading.Thread(target=plan, args=(i,)) for i in range(4)])
    assert errors == []
    results = [found[index] for index in range(len(queries))]
    start = threading.Barrier(2)
    read: list = [None, None]

    def read_all(reader: int) -> None:
        try:
            start.wait(timeout=60)
            read[reader] = [list(result.candidates) for result in results]
        except Exception as exc:  # reported below
            errors.append(exc)

    _switching([threading.Thread(target=read_all, args=(i,)) for i in range(2)])
    assert errors == []
    for result, first, second, serial_result in zip(results, *read, expected):
        assert all(map(operator.is_, first, second))
        _same_plans(result, serial_result)
    assert [_lineage(r) for r, t in zip(results, traced) if t] == [
        _lineage(r) for r, t in zip(expected, traced) if t
    ]
    assert shared._table.rows(shared._select)


def test_eviction_races_hits_beside_a_traced_run(seed_1, monkeypatch):
    """Four threads plan distinct ad-hoc queries through one planner whose
    stages keep three rows each, so eviction races with hits, while a
    fifth plans traced on the same planner: every answer is serial
    planning's, and every lineage a serial traced run's."""
    env, queries = seed_1
    queries = queries[:160]
    traced_queries = queries[::10]
    monkeypatch.setattr(planner_module, "MAX_MEMO", 3)
    serial = Planner(env.view, env.cost_model)
    expected = [_figures(serial.plan_query(env.sql(sql))) for sql in queries]
    lineages = [
        _lineage(serial.plan_query(env.sql(sql), trace=True)) for sql in traced_queries
    ]
    shared = Planner(env.view, env.cost_model)
    found: dict = {}
    traced: list = []
    errors: list = []

    def plan(offset: int) -> None:
        try:
            for index in range(offset, len(queries), 4):
                found[index] = _figures(shared.plan_query(env.sql(queries[index])))
        except Exception as exc:  # reported below
            errors.append(exc)

    def plan_traced() -> None:
        try:
            for sql in traced_queries:
                traced.append(_lineage(shared.plan_query(env.sql(sql), trace=True)))
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=plan, args=(i,)) for i in range(4)]
    _switching(threads + [threading.Thread(target=plan_traced)])
    assert errors == []
    assert [found[index] for index in range(len(queries))] == expected
    assert traced == lineages
    assert all(len(shared._table.rows(stage)) <= 3 for stage in (
        shared._bind, shared._shape, shared._select, shared._enumerate
    ))
