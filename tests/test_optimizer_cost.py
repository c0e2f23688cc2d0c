"""Tests for the cost model (Section 6.2), validated against the paper's
worked formulas and against measured page downloads."""

import itertools

import pytest

from repro.algebra.ast import EntryPointScan, ExternalRelScan, Select
from repro.algebra.predicates import Comparison, In, Predicate
from repro.errors import AlgebraError, OptimizerError
from repro.optimizer.memo import PlanMemo


@pytest.fixture(scope="module")
def cm(uni_env):
    return uni_env.cost_model


def prof_nav():
    return (
        EntryPointScan("ProfListPage")
        .unnest("ProfListPage.ProfList")
        .follow("ProfListPage.ProfList.ToProf")
    )


def dept_nav():
    return (
        EntryPointScan("DeptListPage")
        .unnest("DeptListPage.DeptList")
        .follow("DeptListPage.DeptList.ToDept")
    )


class TestCardinality:
    def test_entry_point_is_one(self, cm):
        assert cm.cardinality(EntryPointScan("ProfListPage")) == 1

    def test_unnest_multiplies_by_list_size(self, cm):
        expr = EntryPointScan("ProfListPage").unnest("ProfListPage.ProfList")
        assert cm.cardinality(expr) == pytest.approx(20)

    def test_navigation_preserves_cardinality(self, cm):
        assert cm.cardinality(prof_nav()) == pytest.approx(20)

    def test_selection_applies_selectivity(self, cm):
        expr = prof_nav().select_eq("ProfPage.Rank", "Full")
        assert cm.cardinality(expr) == pytest.approx(10)

    def test_selection_on_dname(self, cm):
        expr = prof_nav().select_eq("ProfPage.DName", "Computer Science")
        assert cm.cardinality(expr) == pytest.approx(20 / 3)

    def test_in_predicate_scales_with_values(self, cm):
        expr = prof_nav().where(
            Predicate([In("ProfPage.DName", ("CS", "Math"))])
        )
        assert cm.cardinality(expr) == pytest.approx(2 * 20 / 3)

    def test_projection_caps_at_distinct(self, cm):
        expr = prof_nav().project(("Rank", "ProfPage.Rank"))
        assert cm.cardinality(expr) == pytest.approx(2)

    def test_join_uses_selectivity(self, cm):
        expr = prof_nav().join(
            dept_nav(), [("ProfPage.DName", "DeptPage.DName")]
        )
        # 20 × 3 × 1/3
        assert cm.cardinality(expr) == pytest.approx(20)

    def test_external_scan_rejected(self, cm):
        with pytest.raises(OptimizerError):
            cm.cost(ExternalRelScan("Professor", ("PName",)))


class TestCost:
    def test_entry_point_costs_one(self, cm):
        assert cm.cost(EntryPointScan("ProfListPage")) == 1

    def test_local_operators_cost_nothing(self, cm):
        base = EntryPointScan("ProfListPage")
        expr = base.unnest("ProfListPage.ProfList").select_eq(
            "ProfListPage.ProfList.PName", "x"
        )
        assert cm.cost(expr) == cm.cost(base) == 1

    def test_navigation_costs_distinct_links(self, cm):
        # 1 entry + 20 distinct professor links
        assert cm.cost(prof_nav()) == pytest.approx(21)

    def test_selection_reduces_navigation_cost(self, cm):
        expr = (
            EntryPointScan("DeptListPage")
            .unnest("DeptListPage.DeptList")
            .select_eq("DeptListPage.DeptList.DName", "Computer Science")
            .follow("DeptListPage.DeptList.ToDept")
        )
        assert cm.cost(expr) == pytest.approx(2)

    def test_repeated_links_collapse(self, cm):
        # navigating ToDept from all 20 professors reaches only 3 pages
        expr = prof_nav().follow("ProfPage.ToDept")
        assert cm.cost(expr) == pytest.approx(21 + 3)

    def test_navigation_capped_by_target_cardinality(self, cm):
        """Even an inflated intermediate result cannot download more pages
        than the target page-scheme has."""
        expr = prof_nav().join(
            dept_nav().unnest("DeptPage.ProfList"),
            [("ProfPage.DName", "DeptPage.DName")],
        ).follow("DeptPage.ProfList.ToProf", alias="P2")
        # join inflates to ~133 rows; cap at |ProfPage| = 20 target pages
        inner_cost = cm.cost(
            prof_nav().join(
                dept_nav().unnest("DeptPage.ProfList"),
                [("ProfPage.DName", "DeptPage.DName")],
            )
        )
        assert cm.cost(expr) <= inner_cost + 20

    def test_example_7_2_chase_formula(self, uni_env, cm):
        """C(2) = 1 + 1 + |ProfPage|/|DeptPage| + |CoursePage|/|DeptPage|
        ≈ 25.3 with the paper's 50/20/3 cardinalities."""
        plan = (
            EntryPointScan("DeptListPage")
            .unnest("DeptListPage.DeptList")
            .select_eq("DeptListPage.DeptList.DName", "Computer Science")
            .follow("DeptListPage.DeptList.ToDept")
            .unnest("DeptPage.ProfList")
            .follow("DeptPage.ProfList.ToProf")
            .unnest("ProfPage.CourseList")
            .follow("ProfPage.CourseList.ToCourse")
        )
        expected = 1 + 1 + 20 / 3 + 50 / 3
        assert cm.cost(plan) == pytest.approx(expected, rel=0.01)

    def test_estimate_close_to_measured(self, uni_env):
        """Estimated C(E) within 20% of measured downloads for a pure
        navigation (exact statistics, uniform instance)."""
        plan = prof_nav()
        estimated = uni_env.cost_model.cost(plan)
        measured = uni_env.executor.execute(plan).pages
        assert estimated == pytest.approx(measured, rel=0.2)

    def test_explain_breaks_down_cost(self, cm):
        text = cm.explain(prof_nav())
        assert "EntryPoint ProfListPage" in text
        assert "Follow" in text
        assert "cost=21.00" in text


class TestPlanMemoIdentity:
    """A memo finds a node by identity: σ nodes with permuted atoms are
    ``==`` (predicates compare as sets) yet multiply their selectivities
    in their own order, so each must be answered as written."""

    ATOMS = (
        Comparison("ProfPage.DName", "Computer Science"),
        Comparison("ProfPage.PName", "x"),
        Comparison("ProfPage.email", "e"),
    )

    def test_permuted_selections_answered_as_written(self, cm):
        written = {
            perm: cm.estimate(
                Select(prof_nav(), Predicate(perm)), PlanMemo(cm.scheme)
            )
            for perm in itertools.permutations(self.ATOMS)
        }
        first, second = next(
            (a, b)
            for a, b in itertools.combinations(written, 2)
            if written[a].cardinality != written[b].cardinality
        )
        assert Select(prof_nav(), Predicate(first)) == Select(
            prof_nav(), Predicate(second)
        )
        memo = PlanMemo(cm.scheme)
        for perm in (first, second):
            node = Select(prof_nav(), Predicate(perm))
            assert cm.estimate(node, memo) == written[perm]

    def test_permuted_ill_typed_selections_fail_as_written(self, cm):
        """The schema table too: each σ reports its own first bad atom."""
        memo = PlanMemo(cm.scheme)
        atoms = (Comparison("nope1", "a"), Comparison("nope2", "b"))
        for perm in (atoms, atoms[::-1]):
            with pytest.raises(AlgebraError, match=perm[0].attr):
                memo.schemas.of(Select(prof_nav(), Predicate(perm)))
