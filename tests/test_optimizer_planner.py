"""Tests for Algorithm 1 (the planner): correctness of the chosen plans and
of the whole candidate space."""

import pytest

from repro.optimizer.planner import Planner
from repro.views.sql import parse_query


def run_query(env, sql):
    query = parse_query(sql, env.view)
    result = env.plan(query)
    out = env.execute(result.best.expr)
    return result, out


class TestBasicPlanning:
    def test_single_relation_scan(self, uni_env):
        result, out = run_query(uni_env, "SELECT PName, Rank FROM Professor")
        got = {(r["PName"], r["Rank"]) for r in out.relation}
        expected = {
            (p.name, p.rank) for p in uni_env.site.profs
        }
        assert got == expected

    def test_selection_query(self, uni_env):
        result, out = run_query(
            uni_env, "SELECT PName FROM Professor WHERE Rank = 'Full'"
        )
        got = {r["PName"] for r in out.relation}
        expected = {p.name for p in uni_env.site.profs if p.rank == "Full"}
        assert got == expected

    def test_planner_prefers_cheap_access_path(self, uni_env):
        """Dept names only: the best plan reads the list page anchors and
        downloads a single page (rules 7 + 5)."""
        result, out = run_query(uni_env, "SELECT DName FROM Dept")
        assert out.pages == 1
        assert {r["DName"] for r in out.relation} == {
            d.name for d in uni_env.site.depts
        }

    def test_dept_with_address_needs_dept_pages(self, uni_env):
        result, out = run_query(uni_env, "SELECT DName, Address FROM Dept")
        assert out.pages == 1 + len(uni_env.site.depts)

    def test_alternative_navigations_both_considered(self, uni_env):
        query = parse_query("SELECT CName, PName FROM CourseInstructor",
                            uni_env.view)
        result = uni_env.plan(query)
        renders = " | ".join(c.render() for c in result.candidates)
        assert "ProfListPage" in renders        # via professors
        assert "SessionListPage" in renders     # via sessions

    def test_cheaper_navigation_wins_for_course_instructor(self, uni_env):
        """Via professors: 1 + 20 pages.  Via sessions: 1 + 2 + 50 pages."""
        result, out = run_query(
            uni_env, "SELECT CName, PName FROM CourseInstructor"
        )
        assert out.pages == 21
        assert {(r["CName"], r["PName"]) for r in out.relation} == (
            uni_env.site.expected_course_instructor()
        )

    def test_candidates_sorted_by_cost(self, uni_env):
        result = uni_env.plan(
            "SELECT Professor.PName FROM Professor, ProfDept "
            "WHERE Professor.PName = ProfDept.PName "
            "AND ProfDept.DName = 'Computer Science'"
        )
        costs = [c.cost for c in result.candidates]
        assert costs == sorted(costs)
        assert result.best is result.candidates[0]

    def test_describe_output(self, uni_env):
        result = uni_env.plan("SELECT PName FROM Professor")
        text = result.describe(uni_env.scheme)
        assert "valid plans" in text
        assert "pages]" in text


class TestAllCandidatesEquivalent:
    """The soundness property of the whole rewrite system: every candidate
    plan the optimizer generates computes the same answer."""

    QUERIES = [
        "SELECT PName, email FROM Professor WHERE Rank = 'Full'",
        "SELECT DName, Address FROM Dept",
        "SELECT CName, PName FROM CourseInstructor",
        "SELECT Professor.PName FROM Professor, ProfDept "
        "WHERE Professor.PName = ProfDept.PName "
        "AND ProfDept.DName = 'Computer Science'",
        "SELECT Course.CName, Description FROM Professor, CourseInstructor, "
        "Course WHERE Professor.PName = CourseInstructor.PName "
        "AND CourseInstructor.CName = Course.CName "
        "AND Rank = 'Full' AND Session = 'Fall'",
        "SELECT Professor.PName, email FROM Course, CourseInstructor, "
        "Professor, ProfDept WHERE Course.CName = CourseInstructor.CName "
        "AND CourseInstructor.PName = Professor.PName "
        "AND Professor.PName = ProfDept.PName "
        "AND ProfDept.DName = 'Computer Science' AND Type = 'Graduate'",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_every_candidate_computes_the_same_answer(self, uni_env, sql):
        query = parse_query(sql, uni_env.view)
        result = uni_env.plan(query)
        reference = uni_env.execute(result.best.expr).relation
        assert len(result.candidates) >= 1
        for candidate in result.candidates:
            answer = uni_env.execute(candidate.expr).relation
            assert answer.same_contents(reference), (
                f"plan disagrees: {candidate.render(scheme=uni_env.scheme)}"
            )

    @pytest.mark.parametrize("sql", QUERIES)
    def test_best_plan_cost_close_to_measured(self, uni_env, sql):
        """The estimate should be in the right ballpark (within 2× — the
        estimator assumes independence and no cross-branch page sharing)."""
        query = parse_query(sql, uni_env.view)
        result = uni_env.plan(query)
        measured = uni_env.execute(result.best.expr).pages
        assert result.best.cost <= 2 * measured + 2
        assert measured <= 2 * result.best.cost + 2


class TestSelfJoins:
    def test_self_join_uses_distinct_aliases(self, uni_env):
        query = parse_query(
            "SELECT a.PName FROM ProfDept a, ProfDept b "
            "WHERE a.PName = b.PName AND a.DName = 'Computer Science' "
            "AND b.DName = 'Computer Science'",
            uni_env.view,
        )
        result = uni_env.plan(query)
        out = uni_env.execute(result.best.expr)
        expected = {
            p.name
            for p in uni_env.site.profs
            if p.dept.name == "Computer Science"
        }
        assert {r["PName"] for r in out.relation} == expected

    def test_self_join_different_constants_not_collapsed(self, uni_env):
        """Professors belonging to two different departments: the answer is
        empty, NOT the union — rule 4 must not merge the two occurrences."""
        query = parse_query(
            "SELECT a.PName FROM ProfDept a, ProfDept b "
            "WHERE a.PName = b.PName AND a.DName = 'Computer Science' "
            "AND b.DName = 'Mathematics'",
            uni_env.view,
        )
        result = uni_env.plan(query)
        out = uni_env.execute(result.best.expr)
        assert len(out.relation) == 0


class TestFailureModes:
    def test_unanswerable_attribute_raises(self, uni_env):
        """A view whose navigation cannot produce an attribute yields no
        plan."""
        from repro.algebra.ast import EntryPointScan
        from repro.optimizer.planner import Planner
        from repro.views.external import (
            DefaultNavigation,
            ExternalRelation,
            ExternalView,
        )

        broken_view = ExternalView(uni_env.scheme)
        broken_view.add(
            ExternalRelation(
                "DeptNames",
                ("DName",),
                (
                    DefaultNavigation.of(
                        EntryPointScan("DeptListPage").unnest(
                            "DeptListPage.DeptList"
                        ),
                        {"DName": "DeptListPage.DeptList.DName"},
                    ),
                ),
            )
        )
        planner = Planner(broken_view, uni_env.cost_model)
        from repro.views.conjunctive import ConjunctiveQuery, RelOccurrence

        query = ConjunctiveQuery(
            head=(("X", "DeptNames.Nope"),),
            occurrences=(RelOccurrence("DeptNames", "DeptNames"),),
        )
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            planner.plan_query(query)


class TestPlanCache:
    def test_repeated_queries_hit_the_cache(self, uni_env):
        from repro.optimizer import Planner

        planner = Planner(uni_env.view, uni_env.cost_model)
        query = parse_query("SELECT DName FROM Dept", uni_env.view)
        first = planner.plan_query(query)
        second = planner.plan_query(query)
        assert second is first  # same object: served from cache

    def test_different_queries_not_confused(self, uni_env):
        from repro.optimizer import Planner

        planner = Planner(uni_env.view, uni_env.cost_model)
        a = planner.plan_query(
            parse_query("SELECT DName FROM Dept", uni_env.view)
        )
        b = planner.plan_query(
            parse_query("SELECT PName FROM Professor", uni_env.view)
        )
        assert a is not b

    def test_enumerate_plans_limit(self, uni_env):
        """``limit`` keeps the cheapest candidates; below 1 it is an error,
        not the whole plan space."""
        from repro.errors import OptimizerError
        from repro.optimizer import Planner

        planner = Planner(uni_env.view, uni_env.cost_model)
        query = parse_query(
            "SELECT Professor.PName, email FROM Professor, ProfDept "
            "WHERE Professor.PName = ProfDept.PName", uni_env.view
        )
        every = planner.enumerate_plans(query)
        assert len(every) > 2
        assert planner.enumerate_plans(query, limit=1) == every[:1]
        assert planner.enumerate_plans(query, limit=2) == every[:2]
        for limit in (0, -3):
            with pytest.raises(OptimizerError, match="at least 1"):
                planner.enumerate_plans(query, limit=limit)

    def test_refresh_statistics_drops_cache(self):
        from repro.sitegen import SiteMutator, UniversityConfig
        from repro.sites import university

        env = university(UniversityConfig(n_depts=2, n_profs=4, n_courses=6))
        first = env.plan("SELECT DName FROM Dept")
        SiteMutator(env.site).add_prof(env.site.depts[0].name)
        env.refresh_statistics()
        second = env.plan("SELECT DName FROM Dept")
        assert second is not first
