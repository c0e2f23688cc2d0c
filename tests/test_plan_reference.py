"""The π step ≡ steps 6–8 as node passes.

:meth:`Planner._project` and :meth:`Planner._rank` derive a query's
candidates as data from its σ row's core facts and build only the chosen
plan; ``tests/planner_reference.py`` keeps the node passes they replaced.
Over the plan-space golden's corpus (every call in its configuration:
ablated rule families, cold, warm, traced) and every 8th of the first
2 100 dealt ad-hoc queries of seeds 1, 7 and 23 (cold and warm, traced
and untraced) the two must
agree on ``generated``, ``uncached_cost``, every candidate — the same
interned node, cost, bytes and cardinality, in the same order — and a
traced run's rewrite steps.
"""

from __future__ import annotations

import pytest

from repro.errors import OptimizerError
from repro.optimizer import Planner

import tests.planner_reference as reference
from tests import plan_space_golden as golden
from tests.test_plan_cores import _adhoc_workload


def _figures(result) -> tuple:
    return (
        result.generated,
        result.uncached_cost,
        [(c.cost, c.bytes_cost, c.cardinality) for c in result.candidates],
        result.best.expr,
    )


def _steps(result) -> list:
    trace = result.rewrite_trace
    return None if trace is None else [
        (s.phase, s.rule, s.result, s.parent, s.subexpr, s.cost) for s in trace.steps
    ]


def _planned(plan, query, estimate, traced):
    try:
        return plan(query, estimate, traced)
    except OptimizerError as exc:
        return str(exc)


def _agree(planner: Planner, mirror: Planner, query, estimate, traced) -> None:
    """``planner`` plans ``query`` as the reference does on ``mirror``."""
    found = _planned(planner.plan_query, query, estimate, traced)
    expected = _planned(
        lambda *args: reference.plan_query(mirror, *args), query, estimate, traced
    )
    if isinstance(expected, str):
        assert found == expected
        return
    assert _figures(found) == _figures(expected)
    assert len(found.candidates) == len(expected.candidates)
    assert all(
        f.expr is e.expr for f, e in zip(found.candidates, expected.candidates)
    )
    assert found.best is found.candidates[0]
    assert _steps(found) == _steps(expected)


def test_the_golden_corpus_plans_as_the_node_passes():
    calls = golden.calls()
    for call in calls:
        query = call.env.sql(call.sql)
        planner, mirror = golden.fresh_planner(call), golden.fresh_planner(call)
        _agree(planner, mirror, query, call.estimate, call.traced)
    assert len(calls) > 1000


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_dealt_adhoc_queries_plan_as_the_node_passes(seed):
    """Every 8th of the first 2 100 dealt queries (a quarter of a seed's
    deal; ~1 000 calls a side) on long-lived planners, one for each side:
    the π step's σ rows warm from the queries before, as in
    ``adhoc_plan``."""
    env, queries = _adhoc_workload(seed)
    warm = golden._warm_estimate(env)
    planner = Planner(env.view, env.cost_model)
    mirror = Planner(env.view, env.cost_model)
    for sql in queries[:2100:8]:
        query = env.sql(sql)
        for estimate in (None, warm):
            for traced in (False, True):
                _agree(planner, mirror, query, estimate, traced)
