"""EXPLAIN / EXPLAIN ANALYZE over the paper's named examples.

The acceptance bar: on Examples 7.1 and 7.2 the annotated tree's
per-operator download counts must sum *exactly* to the run's total pages,
and the rewrite trace must name the winning access-path rule (pointer-join
rule 8 for 7.1, pointer-chase rule 9 for 7.2).
"""

import pytest

from repro.obs import RecordingTracer, spans_by_node
from repro.obs.explain import plan_report, render_annotated_tree
from repro.options import QueryOptions
from repro.qa.cli import EX71_SQL, EX72_SQL

pytestmark = pytest.mark.usefixtures("isolated_metrics")


def _traced_best(uni_env, sql):
    planned = uni_env.planner.plan_query(uni_env.sql(sql), trace=True)
    tracer = RecordingTracer()
    result = uni_env.executor.execute(
        planned.best.expr, options=QueryOptions(tracer=tracer)
    )
    return planned, result, tracer


class TestMeasuredAttribution:
    @pytest.mark.parametrize("sql", [EX71_SQL, EX72_SQL])
    def test_operator_pages_sum_to_total(self, uni_env, sql):
        planned, result, tracer = _traced_best(uni_env, sql)
        spans = spans_by_node(tracer)
        reports = plan_report(
            planned.best.expr, uni_env.cost_model,
            scheme=uni_env.scheme, spans=spans,
        )
        own = [r.measured_own for r in reports if r.span is not None]
        assert own, "no operator span matched a plan node"
        assert sum(own) == result.pages

    @pytest.mark.parametrize("sql", [EX71_SQL, EX72_SQL])
    def test_annotated_tree_shows_both_columns(self, uni_env, sql):
        planned, result, tracer = _traced_best(uni_env, sql)
        text = render_annotated_tree(
            planned.best.expr, uni_env.cost_model,
            scheme=uni_env.scheme, spans=spans_by_node(tracer),
        )
        assert "est:" in text and "measured:" in text
        assert "pages" in text and "tuples" in text


class TestRewriteLineage:
    def test_ex71_winner_is_pointer_join(self, uni_env):
        planned = uni_env.planner.plan_query(
            uni_env.sql(EX71_SQL), trace=True
        )
        why = planned.why()
        assert "pointer-join (rule 8)" in why
        assert "PointerJoin" in why

    def test_ex72_winner_is_pointer_chase(self, uni_env):
        planned = uni_env.planner.plan_query(
            uni_env.sql(EX72_SQL), trace=True
        )
        why = planned.why()
        assert "pointer-chase (rule 9)" in why
        assert "PointerChase" in why

    def test_traced_plan_matches_untraced(self, uni_env):
        for sql in (EX71_SQL, EX72_SQL):
            traced = uni_env.planner.plan_query(uni_env.sql(sql), trace=True)
            plain = uni_env.planner.plan_query(uni_env.sql(sql))
            assert traced.best.render() == plain.best.render()
            assert traced.best.cost == plain.best.cost

    def test_untraced_result_reports_absence(self, uni_env):
        planned = uni_env.planner.plan_query(uni_env.sql(EX71_SQL))
        assert "not traced" in planned.why()


class TestSiteEnvExplain:
    def test_explain_analyze_ex71(self, uni_env):
        text = uni_env.explain(EX71_SQL, analyze=True)
        assert "why this plan:" in text
        assert "pointer-join (rule 8)" in text
        assert "measured:" in text
        assert "chosen plan:" in text

    def test_explain_without_analyze_has_no_measurements(self, uni_env):
        text = uni_env.explain(EX72_SQL)
        assert "pointer-chase (rule 9)" in text
        assert "measured:" not in text

    def test_cost_model_explain_unchanged_format(self, uni_env):
        """CostModel.explain now routes through the shared renderer but
        keeps its pinned ``card=... cost=... (+own)`` line shape."""
        expr = uni_env.plan(EX71_SQL).best.expr
        text = uni_env.cost_model.explain(expr)
        for line in text.splitlines():
            assert "card=" in line and "cost=" in line and "(+" in line
