"""Tests for the rewrite closure driver."""

import pytest

from repro.algebra.ast import EntryPointScan, Join
from repro.algebra.printer import render_expr
from repro.errors import OptimizerError
from repro.optimizer.rewriter import closure
from repro.optimizer.rules import RULES, Rule


def prof_nav():
    return (
        EntryPointScan("ProfListPage")
        .unnest("ProfListPage.ProfList")
        .follow("ProfListPage.ProfList.ToProf")
    )


_NoOpRule = Rule("NoOp", "", lambda node, memo: [])

#: Returns the node itself: must not loop (dedup catches it).
_SelfRule = Rule("Self", "", lambda node, memo: [node])


def _spin(node, memo):
    """Produces ever-new plans to exercise the safety cap."""
    if isinstance(node, EntryPointScan):
        return [
            EntryPointScan(node.page_scheme, f"{node.name}x")
        ]
    return []


_AliasSpinner = Rule("AliasSpinner", "", _spin)


class TestClosure:
    def test_empty_rules_returns_inputs(self, uni_env):
        plans = closure([prof_nav()], [], uni_env.scheme)
        assert plans == [prof_nav()]

    def test_no_match_returns_inputs(self, uni_env):
        plans = closure([prof_nav()], [_NoOpRule], uni_env.scheme)
        assert plans == [prof_nav()]

    def test_identity_rewrites_deduplicated(self, uni_env):
        plans = closure([prof_nav()], [_SelfRule], uni_env.scheme)
        assert len(plans) == 1

    def test_duplicate_inputs_deduplicated(self, uni_env):
        plans = closure(
            [prof_nav(), prof_nav()], [_NoOpRule], uni_env.scheme
        )
        assert len(plans) == 1

    def test_cap_raises(self, uni_env):
        with pytest.raises(OptimizerError):
            closure(
                [prof_nav()], [_AliasSpinner], uni_env.scheme, max_plans=5
            )

    def test_closure_applies_at_any_depth(self, uni_env):
        # a mergeable join buried under another join
        nav = prof_nav()
        inner = Join(nav, nav, (("ProfPage.PName", "ProfPage.PName"),))
        dept = EntryPointScan("DeptListPage").unnest("DeptListPage.DeptList")
        outer = Join(
            inner, dept,
            (("ProfPage.DName", "DeptListPage.DeptList.DName"),),
        )
        plans = closure([outer], [RULES["MergeRepeatedNavigation"]], uni_env.scheme)
        rendered = {render_expr(p) for p in plans}
        merged = Join(
            nav, dept, (("ProfPage.DName", "DeptListPage.DeptList.DName"),)
        )
        assert render_expr(merged) in rendered


class TestPlannerGuards:
    def test_expansion_cap(self, uni_env):
        """A query over many multi-navigation relations exceeds the
        expansion cap and fails fast with a clear error."""
        from repro.views.conjunctive import ConjunctiveQuery, RelOccurrence

        # CourseInstructor has 2 navigations: 2^9 = 512 > 256
        occurrences = tuple(
            RelOccurrence(f"c{i}", "CourseInstructor") for i in range(9)
        )
        equalities = tuple(
            (f"c{i}.CName", f"c{i + 1}.CName") for i in range(8)
        )
        query = ConjunctiveQuery(
            head=(("CName", "c0.CName"),),
            occurrences=occurrences,
            equalities=equalities,
        )
        with pytest.raises(OptimizerError, match="combinations"):
            uni_env.planner.plan_query(query)
