"""Tests for the individual rewrite rules."""

import pytest

from repro.algebra.ast import EntryPointScan, FollowLink, Join, Select
from repro.algebra.predicates import Comparison, Predicate
from repro.algebra.printer import render_expr
from repro.optimizer.memo import PlanMemo
from repro.optimizer.rules import (
    RULES,
    projection_source,
    push_selections,
    substitute_attrs,
)

from tests.planner_reference import (
    eliminate_unused_navigation,
    substitute_projection_node,
)


@pytest.fixture(scope="module")
def scheme(uni_env):
    return uni_env.scheme


def rewrite(rule, node, scheme, stats=None):
    """``node``'s rewritings by the entry of ``RULES`` named ``rule``."""
    return RULES[rule].rewrite(node, PlanMemo(scheme, stats))


def substitute(expr, scheme):
    """Rule 7's rewritings of the projection ``expr``."""
    memo = PlanMemo(scheme)
    return substitute_projection_node(
        expr, lambda name: projection_source(expr.child, name, memo)
    )


def prof_nav():
    return (
        EntryPointScan("ProfListPage")
        .unnest("ProfListPage.ProfList")
        .follow("ProfListPage.ProfList.ToProf")
    )


def dept_prof_nav():
    return (
        EntryPointScan("DeptListPage")
        .unnest("DeptListPage.DeptList")
        .follow("DeptListPage.DeptList.ToDept")
        .unnest("DeptPage.ProfList")
    )


def course_nav():
    return (
        EntryPointScan("SessionListPage")
        .unnest("SessionListPage.SesList")
        .follow("SessionListPage.SesList.ToSes")
        .unnest("SessionPage.CourseList")
        .follow("SessionPage.CourseList.ToCourse")
    )


class TestSubstituteAttrs:
    def test_renames_predicates_and_joins(self, scheme):
        expr = Select(
            Join(
                prof_nav(),
                dept_prof_nav(),
                (("Professor.PName", "ProfDept.PName"),),
            ),
            Predicate([Comparison("Professor.Rank", "Full")]),
        )
        out = substitute_attrs(
            expr,
            {
                "Professor.PName": "ProfPage.PName",
                "Professor.Rank": "ProfPage.Rank",
                "ProfDept.PName": "DeptPage.ProfList.PName",
            },
        )
        assert isinstance(out, Select)
        assert out.predicate.attrs() == ("ProfPage.Rank",)
        assert out.child.on == (("ProfPage.PName", "DeptPage.ProfList.PName"),)

    def test_empty_mapping_is_identity(self):
        expr = prof_nav()
        assert substitute_attrs(expr, {}) is expr


class TestMergeRepeatedNavigation:
    def test_identical_sides_merge(self, scheme):
        join = Join(
            prof_nav(), prof_nav(), (("ProfPage.PName", "ProfPage.PName"),)
        )
        results = rewrite("MergeRepeatedNavigation", join, scheme)
        assert prof_nav() in results

    def test_prefix_side_merges_into_longer(self, scheme):
        longer = prof_nav().unnest("ProfPage.CourseList")
        join = Join(
            prof_nav(), longer, (("ProfPage.PName", "ProfPage.PName"),)
        )
        results = rewrite("MergeRepeatedNavigation", join, scheme)
        assert longer in results

    def test_different_attr_pairs_do_not_merge(self, scheme):
        join = Join(
            prof_nav(),
            dept_prof_nav(),
            (("ProfPage.PName", "DeptPage.ProfList.PName"),),
        )
        assert rewrite("MergeRepeatedNavigation", join, scheme) == []

    def test_non_join_no_match(self, scheme):
        assert rewrite("MergeRepeatedNavigation", prof_nav(), scheme) == []


class TestPointerJoin:
    def test_rule8_shape(self, scheme):
        """(profCourses →ToCourse CoursePage) ⋈_{CName} sessionCourses
        rewrites to a join of the two link sets before one navigation."""
        prof_courses = prof_nav().unnest("ProfPage.CourseList")
        join = Join(
            course_nav(),
            prof_courses,
            (("CoursePage.CName", "ProfPage.CourseList.CName"),),
        )
        results = rewrite("PointerJoin", join, scheme)
        assert results
        rewritten = results[0]
        assert isinstance(rewritten, FollowLink)
        inner = rewritten.child
        assert isinstance(inner, Join)
        link_pairs = set(inner.on)
        assert (
            "SessionPage.CourseList.ToCourse",
            "ProfPage.CourseList.ToCourse",
        ) in link_pairs

    def test_no_match_without_constraint(self, scheme):
        # joining on Description has no link constraint
        prof_courses = prof_nav().unnest("ProfPage.CourseList")
        join = Join(
            course_nav(),
            prof_courses,
            (("CoursePage.Description", "ProfPage.CourseList.CName"),),
        )
        assert rewrite("PointerJoin", join, scheme) == []


class TestPointerChase:
    def test_rule9_replaces_join_with_navigation(self, scheme):
        prof_courses = prof_nav().unnest("ProfPage.CourseList")
        join = Join(
            course_nav(),
            prof_courses,
            (("CoursePage.CName", "ProfPage.CourseList.CName"),),
        )
        results = rewrite("PointerChase", join, scheme)
        assert results
        rewritten = results[0]
        assert isinstance(rewritten, FollowLink)
        assert rewritten.link_attr == "ProfPage.CourseList.ToCourse"
        assert rewritten.alias == "CoursePage"
        # the session-side navigation is gone entirely
        assert "SessionListPage" not in render_expr(rewritten)

    def test_rule9_requires_inclusion(self, scheme):
        """Chasing in the opposite direction (sessions ⊆ profs does NOT
        hold) must not fire."""
        prof_courses_nav = prof_nav().unnest("ProfPage.CourseList").follow(
            "ProfPage.CourseList.ToCourse"
        )
        session_courses = (
            EntryPointScan("SessionListPage")
            .unnest("SessionListPage.SesList")
            .follow("SessionListPage.SesList.ToSes")
            .unnest("SessionPage.CourseList")
        )
        join = Join(
            prof_courses_nav,
            session_courses,
            (("CoursePage.CName", "SessionPage.CourseList.CName"),),
        )
        results = rewrite("PointerChase", join, scheme)
        # R1 = ProfPage.CourseList: SessionPage.CourseList ⊄ it
        assert results == []

    def test_rule9_requires_pure_navigation_superset(self, scheme):
        restricted = (
            EntryPointScan("SessionListPage")
            .unnest("SessionListPage.SesList")
            .select_eq("SessionListPage.SesList.Session", "Fall")
            .follow("SessionListPage.SesList.ToSes")
            .unnest("SessionPage.CourseList")
            .follow("SessionPage.CourseList.ToCourse")
        )
        prof_courses = prof_nav().unnest("ProfPage.CourseList")
        join = Join(
            restricted,
            prof_courses,
            (("CoursePage.CName", "ProfPage.CourseList.CName"),),
        )
        assert rewrite("PointerChase", join, scheme) == []


class TestJoinPushdown:
    def test_pushes_below_unnest_and_follow(self, scheme):
        buried = prof_nav().unnest("ProfPage.CourseList").follow(
            "ProfPage.CourseList.ToCourse"
        )
        join = Join(
            buried,
            dept_prof_nav(),
            (("ProfPage.PName", "DeptPage.ProfList.PName"),),
        )
        results = rewrite("JoinPushdown", join, scheme)
        assert results
        # the FollowLink should now be above the join
        assert isinstance(results[0], FollowLink)

    def test_does_not_push_below_op_that_produces_join_attr(self, scheme):
        join = Join(
            course_nav(),
            dept_prof_nav(),
            (("CoursePage.PName", "DeptPage.ProfList.PName"),),
        )
        # CoursePage.PName is produced by the left side's top FollowLink, so
        # the left side must not be pushed; the right side's top Unnest
        # produces DeptPage.ProfList.PName, so it must not be pushed either.
        assert rewrite("JoinPushdown", join, scheme) == []

    def test_pushdown_preserves_semantics(self, uni_env, scheme):
        buried = prof_nav().unnest("ProfPage.CourseList").follow(
            "ProfPage.CourseList.ToCourse"
        )
        join = Join(
            buried,
            dept_prof_nav(),
            (("ProfPage.PName", "DeptPage.ProfList.PName"),),
        )
        rewritten = rewrite("JoinPushdown", join, scheme)[0]
        a = uni_env.executor.execute(join).relation
        b = uni_env.executor.execute(rewritten).relation
        assert a.same_contents(b)


class TestPushSelections:
    def test_pushes_below_navigation(self, scheme):
        expr = prof_nav().select_eq(
            "ProfListPage.ProfList.PName", "Ada Lovelace"
        )
        pushed = push_selections(expr, scheme)
        # the selection should sit below the FollowLink now
        assert isinstance(pushed, FollowLink)
        assert isinstance(pushed.child, Select)

    def test_rule6_substitutes_constrained_attribute(self, scheme):
        expr = prof_nav().select_eq("ProfPage.PName", "Ada Lovelace")
        pushed = push_selections(expr, scheme)
        # ProfPage.PName = ProfList.PName via the link constraint, so the
        # selection moves below the navigation with the source attribute
        assert isinstance(pushed, FollowLink)
        select = pushed.child
        assert isinstance(select, Select)
        assert select.predicate.attrs() == ("ProfListPage.ProfList.PName",)

    def test_unconstrained_attribute_stays_above(self, scheme):
        expr = prof_nav().select_eq("ProfPage.email", "x@univ.example")
        pushed = push_selections(expr, scheme)
        assert isinstance(pushed, Select)  # email has no link constraint

    def test_pushes_through_join_to_correct_side(self, scheme):
        join = Join(
            prof_nav(),
            dept_prof_nav(),
            (("ProfPage.PName", "DeptPage.ProfList.PName"),),
        )
        expr = Select(join, Predicate.eq("DeptPage.DName", "Computer Science"))
        pushed = push_selections(expr, scheme)
        assert isinstance(pushed, Join)
        # selection landed on the dept side, below the ToDept navigation
        assert "σ" not in render_expr(pushed.left)
        assert "σ" in render_expr(pushed.right)

    def test_semantics_preserved(self, uni_env, scheme):
        expr = prof_nav().select_eq("ProfPage.DName", "Computer Science")
        pushed = push_selections(expr, scheme)
        a = uni_env.executor.execute(expr).relation
        b = uni_env.executor.execute(pushed).relation
        assert a.same_contents(b)

    def test_pushing_reduces_cost(self, uni_env, scheme):
        expr = (
            EntryPointScan("DeptListPage")
            .unnest("DeptListPage.DeptList")
            .follow("DeptListPage.DeptList.ToDept")
            .select_eq("DeptPage.DName", "Computer Science")
        )
        pushed = push_selections(expr, scheme)
        cm = uni_env.cost_model
        assert cm.cost(pushed) < cm.cost(expr)


class TestProjectionSubstitution:
    def test_substitutes_target_attr(self, scheme):
        expr = prof_nav().project(("PName", "ProfPage.PName"))
        results = substitute(expr, scheme)
        assert results
        out = results[0]
        assert out.outputs == (("PName", "ProfListPage.ProfList.PName"),)

    def test_no_substitution_without_constraint(self, scheme):
        expr = prof_nav().project(("email", "ProfPage.email"))
        assert substitute(expr, scheme) == []


class TestEliminateUnusedNavigation:
    def test_drops_unused_navigation(self, scheme):
        expr = prof_nav().project(
            ("PName", "ProfListPage.ProfList.PName")
        )
        out = eliminate_unused_navigation(expr, scheme)
        assert "ProfPage" not in render_expr(out)

    def test_keeps_used_navigation(self, scheme):
        expr = prof_nav().project(("Rank", "ProfPage.Rank"))
        out = eliminate_unused_navigation(expr, scheme)
        assert "ToProf" in render_expr(out)

    def test_drops_unused_unnest(self, scheme):
        expr = (
            EntryPointScan("DeptListPage")
            .unnest("DeptListPage.DeptList")
            .follow("DeptListPage.DeptList.ToDept")
            .unnest("DeptPage.ProfList")
            .project(("DName", "DeptPage.DName"))
        )
        out = eliminate_unused_navigation(expr, scheme)
        assert "DeptPage.ProfList" not in render_expr(out)

    def test_requires_root_projection(self, scheme):
        expr = prof_nav()
        assert eliminate_unused_navigation(expr, scheme) is expr

    def test_composition_with_rule7_skips_pages(self, uni_env, scheme):
        """Rule 7 + rule 5: read department names off the list page's
        anchors without downloading any department page."""
        expr = (
            EntryPointScan("DeptListPage")
            .unnest("DeptListPage.DeptList")
            .follow("DeptListPage.DeptList.ToDept")
            .project(("DName", "DeptPage.DName"))
        )
        substituted = substitute(expr, scheme)[0]
        out = eliminate_unused_navigation(substituted, scheme)
        assert "ToDept" not in render_expr(out)
        result = uni_env.executor.execute(out)
        assert result.pages == 1
        assert {r["DName"] for r in result.relation} == {
            d.name for d in uni_env.site.depts
        }


class TestMergeKeyGuard:
    """With statistics, rule 4 only merges on identifying attributes."""

    def test_non_key_attribute_blocks_merge(self, uni_env, scheme):
        # DName in ProfPage has 3 distinct values over 20 pages: not a key
        join = Join(
            prof_nav(), prof_nav(), (("ProfPage.DName", "ProfPage.DName"),)
        )
        assert rewrite("MergeRepeatedNavigation", join, scheme, uni_env.stats) == []

    def test_key_attribute_allows_merge(self, uni_env, scheme):
        join = Join(
            prof_nav(), prof_nav(), (("ProfPage.PName", "ProfPage.PName"),)
        )
        assert rewrite("MergeRepeatedNavigation", join, scheme, uni_env.stats)

    def test_url_is_always_a_key(self, uni_env, scheme):
        join = Join(
            prof_nav(), prof_nav(), (("ProfPage.URL", "ProfPage.URL"),)
        )
        assert rewrite("MergeRepeatedNavigation", join, scheme, uni_env.stats)

    def test_without_stats_merge_is_assumed(self, scheme):
        join = Join(
            prof_nav(), prof_nav(), (("ProfPage.DName", "ProfPage.DName"),)
        )
        assert rewrite("MergeRepeatedNavigation", join, scheme)

    def test_planner_still_merges_workload_queries(self, uni_env):
        """The stats-guarded planner still finds the cheap merged plans on
        the paper workload (all its joins are on key attributes)."""
        result = uni_env.plan(
            "SELECT Professor.PName FROM Professor, ProfDept "
            "WHERE Professor.PName = ProfDept.PName"
        )
        assert result.best.cost <= 21.0 + 1e-9
