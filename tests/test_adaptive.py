"""Adaptive execution (docs/ADAPTIVE.md): the crossover API, suffix
re-planning, the X-OVER regression pin, and prune soundness.

The regression scenarios use two-phase skew: a fuzzed site is grown
*after* its statistics are baked, so the planner's estimates are stale in
a controlled direction.  Executing the join-form candidate (the plan a
join-committed planner would report) under ``execution="adaptive"`` must
then fire exactly one mid-query strategy switch — pinned here down to the
observed crossover costs, so any drift in ``cost.py``'s decision rule or
the executor's fan-out accounting fails loudly.
"""

import pytest

from repro.algebra.ast import EntryPointScan, Join, Project, Select
from repro.algebra.predicates import In, Predicate
from repro.algebra.visitors import walk
from repro.engine.adaptive import PRUNES_TOTAL, SWITCHES_TOTAL
from repro.errors import OptimizerError, SchemeError
from repro.obs.rewrite import RewriteTrace
from repro.obs.trace import RecordingTracer
from repro.optimizer.cost import StrategyCrossover, crossover_winner
from repro.options import QueryOptions
from repro.qa import relation_digest
from repro.sites import fuzzed, university

#: The Beta/Gamma pair query on fuzz seed 42 (3 Alpha, 4 Beta, 7 Gamma;
#: the Beta/Gamma pair is optional, so Gamma orphans are legal).
SQL = (
    "SELECT BetaGamma.BetaName, Gamma.Info1 FROM BetaGamma, Gamma "
    "WHERE BetaGamma.GammaName = Gamma.GammaName"
)

#: Render marker of the plain join-form candidates (neither rule 8 nor
#: rule 9 applied): the literal pair predicate survives only there.
PLAIN_MARKER = "GammaName=GammaName"


def plain_candidate(planned):
    """The cheapest join-form candidate — the plan a join-committed
    planner reports, and the one adaptive execution can improve."""
    for index, candidate in enumerate(planned.candidates):
        if PLAIN_MARKER in candidate.render():
            return index, candidate
    raise AssertionError("no plain join-form candidate in the plan space")


def scenario_a_env():
    """Join→chase skew: 20 Gamma orphans grown after statistics.

    The stale model prices the chase's FollowLink by the *class* count
    (27 Gammas) while only the original 7 are members; observed distinct
    links (2 per Beta batch) undercut the modeled join cost."""
    env = fuzzed(42)
    env.site.grow("Gamma", 20)
    return env


def scenario_b_env():
    """Chase→join skew: one Beta grows 10 extra members (plus 5 orphans),
    so chasing its links costs more than the modeled join."""
    env = fuzzed(42)
    beta = env.site.entities["Beta"][0].name
    env.site.grow("Gamma", 10, parent=beta)
    env.site.grow("Gamma", 5)
    return env


def run(env, execution, tracer=None):
    """Execute the plain join-form candidate under ``execution``."""
    _, candidate = plain_candidate(env.plan(SQL))
    return env.execute(
        candidate.expr,
        options=QueryOptions(execution=execution, tracer=tracer),
    )


@pytest.fixture(scope="module")
def scenario_a():
    """(staged result, adaptive result, adaptive tracer) under A's skew.

    Fresh environments per run: ``grow`` republishes pages and a query's
    log is a delta of its client's cumulative counters."""
    staged = run(scenario_a_env(), "staged")
    tracer = RecordingTracer()
    adaptive = run(scenario_a_env(), "adaptive", tracer=tracer)
    return staged, adaptive, tracer


@pytest.fixture(scope="module")
def scenario_b():
    staged = run(scenario_b_env(), "staged")
    tracer = RecordingTracer()
    adaptive = run(scenario_b_env(), "adaptive", tracer=tracer)
    return staged, adaptive, tracer


class TestCrossoverApi:
    """crossover_winner is the single decision rule everywhere."""

    def test_tie_goes_to_the_chase(self):
        assert crossover_winner(5.0, 5.0) == "chase"

    def test_strict_orders(self):
        assert crossover_winner(2.0, 8.0) == "chase"
        assert crossover_winner(22.0, 12.0) == "join"

    def test_strategy_crossover_applies_the_same_rule(self):
        for chase, join in ((3.0, 7.0), (7.0, 3.0), (4.0, 4.0)):
            x = StrategyCrossover(chase_cost=chase, join_cost=join)
            assert x.winner == crossover_winner(chase, join)

    def test_cost_model_crossover_matches_candidate_costs(self):
        """CostModel.strategy_crossover prices with the same C(E) the
        planner ranks by, and decides with crossover_winner."""
        env = fuzzed(42)
        planned = env.plan(SQL)
        _, join = plain_candidate(planned)
        chase = planned.best  # the chase form wins statically here
        x = env.cost_model.strategy_crossover(chase.expr, join.expr)
        assert x.chase_cost == chase.cost
        assert x.join_cost == join.cost
        assert x.winner == crossover_winner(x.chase_cost, x.join_cost)


class TestReplanSuffix:
    """Planner.replan_suffix — the adaptive executor's re-planning hook."""

    def _join_node(self, env):
        _, candidate = plain_candidate(env.plan(SQL))
        return env, next(
            node
            for _, node in walk(candidate.expr)
            if isinstance(node, Join)
        )

    def test_pointer_chase_rewrites_the_join_suffix(self):
        env, join = self._join_node(fuzzed(42))
        out = env.planner.replan_suffix(join, "PointerChase")
        assert out is not None and out is not join

    def test_pointer_join_rewrites_the_join_suffix(self):
        env, join = self._join_node(fuzzed(42))
        out = env.planner.replan_suffix(join, "PointerJoin")
        assert out is not None and out is not join

    def test_trace_records_the_adaptive_phase(self):
        env, join = self._join_node(fuzzed(42))
        trace = RewriteTrace()
        env.planner.replan_suffix(join, "PointerChase", trace=trace)
        assert len(trace) == 1
        step = trace.steps[0]
        assert step.phase == "adaptive re-planning"
        assert step.rule == "PointerChase"

    def test_unknown_rule_rejected(self):
        env, join = self._join_node(fuzzed(42))
        with pytest.raises(OptimizerError):
            env.planner.replan_suffix(join, "HashJoin")


class TestXoverRegression:
    """Pin scenario B's chase→join switch against cost.py drift."""

    def test_exactly_one_pointer_join_switch(self, scenario_b):
        _, adaptive, _ = scenario_b
        report = adaptive.adaptive
        assert report is not None
        assert len(report.switches) == 1
        switch = report.switches[0]
        assert switch.rule == "PointerJoin"

    def test_crossover_costs_pinned(self, scenario_b):
        """Observed chase cost 22 (links on the grown Beta's spine) vs
        modeled join cost 12 — any cost.py drift moves these."""
        _, adaptive, _ = scenario_b
        x = adaptive.adaptive.switches[0].crossover
        assert (x.chase_cost, x.join_cost) == (22.0, 12.0)
        assert x.winner == "join" == crossover_winner(22.0, 12.0)

    def test_join_key_prune_pinned(self, scenario_b):
        _, adaptive, _ = scenario_b
        (prune,) = adaptive.adaptive.prunes
        assert prune.kind == "join-key"
        assert (prune.urls_before, prune.urls_after) == (22, 12)
        assert prune.urls_pruned == 10

    def test_pages_and_answers(self, scenario_b):
        staged, adaptive, _ = scenario_b
        assert staged.pages == 28
        assert adaptive.pages == 18
        assert staged.pages - adaptive.pages == 10  # exactly the prune
        assert relation_digest(staged.relation) == relation_digest(
            adaptive.relation
        )

    def test_switch_visible_in_rewrite_trace(self, scenario_b):
        _, adaptive, _ = scenario_b
        trace = adaptive.adaptive.rewrite_trace
        assert len(trace) == 1
        assert trace.steps[0].phase == "adaptive re-planning"
        assert trace.steps[0].rule == "PointerJoin"

    def test_switch_visible_in_explain_analyze(self):
        env = scenario_b_env()
        index, _ = plain_candidate(env.plan(SQL))
        report = env.explain(
            SQL,
            analyze=True,
            options=QueryOptions(execution="adaptive"),
            plan_index=index,
        )
        assert f"candidate plan {index}:" in report
        assert "switch → pointer-join (rule 8)" in report
        assert "22 vs join cost 12" in report

    def test_tracer_events(self, scenario_b):
        _, _, tracer = scenario_b
        assert len(tracer.events("adaptive-switch")) == 1
        assert len(tracer.events("adaptive-prune")) == 1


class TestAdaptiveSavings:
    """Scenario A: the ISSUE's headline acceptance criterion."""

    def test_exactly_one_pointer_chase_switch(self, scenario_a):
        _, adaptive, _ = scenario_a
        report = adaptive.adaptive
        assert len(report.switches) == 1
        switch = report.switches[0]
        assert switch.rule == "PointerChase"
        x = switch.crossover
        assert (x.chase_cost, x.join_cost) == (2.0, 8.0)
        assert x.winner == "chase"

    def test_at_least_twenty_percent_fewer_pages(self, scenario_a):
        """Adaptive fetches ≥20 % fewer pages than the static join plan
        under the skewed estimate (actually 79 % here), with identical
        answers."""
        staged, adaptive, _ = scenario_a
        assert staged.pages == 33
        assert adaptive.pages == 7
        assert adaptive.pages <= 0.8 * staged.pages
        assert relation_digest(staged.relation) == relation_digest(
            adaptive.relation
        )

    def test_adaptive_matches_the_best_static_plan(self, scenario_a):
        """The switch lands on the plan a fresh optimizer would pick:
        same page count as the statically chosen chase."""
        _, adaptive, _ = scenario_a
        env = scenario_a_env()
        best = env.execute(
            env.plan(SQL).best.expr, options=QueryOptions(execution="staged")
        )
        assert adaptive.pages == best.pages

    def test_chase_switch_fires_tracer_event(self, scenario_a):
        _, _, tracer = scenario_a
        assert len(tracer.events("adaptive-switch")) == 1
        assert tracer.events("adaptive-prune") == []


class TestMetrics:
    """repro_adaptive_*_total counters account for every decision."""

    def test_counters_increment_by_decision_size(self):
        switches_before = SWITCHES_TOTAL.total()
        prunes_before = PRUNES_TOTAL.total()
        run(scenario_b_env(), "adaptive")
        assert SWITCHES_TOTAL.total() == switches_before + 1
        assert PRUNES_TOTAL.total() == prunes_before + 10.0

    def test_switch_counter_labelled_by_rule(self):
        before = SWITCHES_TOTAL.value(rule="PointerChase")
        run(scenario_a_env(), "adaptive")
        assert SWITCHES_TOTAL.value(rule="PointerChase") == before + 1


class TestPruneSoundness:
    """Every candidate, both skews: adaptive is answer-identical and
    never fetches more; pruned URLs are provably irrelevant."""

    @pytest.mark.parametrize("make_env", [scenario_a_env, scenario_b_env])
    def test_every_candidate_bounded_and_identical(self, make_env):
        n_candidates = len(make_env().plan(SQL).candidates)
        for index in range(min(n_candidates, 6)):
            staged_env = make_env()
            staged = staged_env.execute(
                staged_env.plan(SQL).candidates[index].expr,
                options=QueryOptions(execution="staged"),
            )
            adaptive_env = make_env()
            adaptive = adaptive_env.execute(
                adaptive_env.plan(SQL).candidates[index].expr,
                options=QueryOptions(execution="adaptive"),
            )
            assert relation_digest(adaptive.relation) == relation_digest(
                staged.relation
            ), f"candidate {index} diverged"
            assert adaptive.pages <= staged.pages

    def test_pruned_urls_never_fetched_but_statically_reachable(self):
        staged = run(scenario_b_env(), "staged")
        adaptive = run(scenario_b_env(), "adaptive")
        pruned = set(adaptive.adaptive.pruned_urls)
        assert pruned  # scenario B prunes 10 member links
        assert not pruned & set(adaptive.log.downloaded_urls)
        assert pruned <= set(staged.log.downloaded_urls)


class TestGrow:
    """FuzzedSite.grow — the two-phase skew primitive itself."""

    def test_total_pair_rejects_orphans(self):
        env = fuzzed(42)  # the Alpha/Beta pair is total on this seed
        with pytest.raises(SchemeError):
            env.site.grow("Beta", 1)

    def test_root_class_has_no_parent(self):
        env = fuzzed(42)
        with pytest.raises(SchemeError):
            env.site.grow("Alpha", 1, parent="anything")

    def test_unknown_parent_rejected(self):
        env = fuzzed(42)
        with pytest.raises(SchemeError):
            env.site.grow("Gamma", 1, parent="no-such-beta")

    def test_growth_is_deterministic(self):
        first, second = fuzzed(42), fuzzed(42)
        a = first.site.grow("Gamma", 5)
        b = second.site.grow("Gamma", 5)
        assert [(e.name, e.infos) for e in a] == [
            (e.name, e.infos) for e in b
        ]

    def test_member_growth_extends_the_expected_pair(self):
        env = fuzzed(42)
        beta = env.site.entities["Beta"][0].name
        before = env.site.expected_pair("Beta", "Gamma")
        added = env.site.grow("Gamma", 3, parent=beta)
        after = env.site.expected_pair("Beta", "Gamma")
        assert after - before == {(beta, e.name) for e in added}

    def test_orphan_growth_leaves_the_pair_alone(self):
        env = fuzzed(42)
        before = env.site.expected_pair("Beta", "Gamma")
        env.site.grow("Gamma", 4)
        assert env.site.expected_pair("Beta", "Gamma") == before


class TestRule9Realign:
    """After a rule-9 switch the chase's batch has the chase's schema,
    while the operators above the join were compiled against the join's.
    A σ and a π above the join that read target attributes pin the
    realignment by column name."""

    def plan(self, env, keep):
        _, candidate = plain_candidate(env.plan(SQL))
        join = candidate.expr.child
        assert isinstance(join, Join)
        return Project(
            Select(join, Predicate([In("GammaPage.Info1", keep)])),
            (("BetaName", "BetaPage.BetaName"), ("Info1", "GammaPage.Info1")),
        )

    def test_select_and_project_above_switched_join(self):
        everything = run(scenario_a_env(), "staged").relation
        keep = tuple(sorted({row["Info1"] for row in everything})[:1])
        plan = self.plan(scenario_a_env(), keep)
        staged = scenario_a_env().execute(
            plan, options=QueryOptions(execution="staged")
        )
        adaptive = scenario_a_env().execute(
            plan, options=QueryOptions(execution="adaptive")
        )
        (switch,) = adaptive.adaptive.switches
        assert switch.rule == "PointerChase"
        assert 0 < len(staged.relation) < len(everything)
        assert {row["Info1"] for row in staged.relation} == set(keep)
        assert adaptive.relation.rows == staged.relation.rows
        assert adaptive.pages < staged.pages


class TestConstraintPruning:
    """The relevance tests at a follow, which no QA-suite plan triggers:
    a selection on a documented target attribute and a join-key semijoin
    through a renaming projection.  Pinned to what the row interpreter
    decided on the paper's university: three department links, two
    pruned, four pages down to two, same answer."""

    @staticmethod
    def depts():
        return EntryPointScan("DeptListPage").unnest("DeptListPage.DeptList")

    def plans(self):
        cs = "Computer Science"
        yield "selection", self.depts().follow(
            "DeptListPage.DeptList.ToDept"
        ).select_eq("DeptPage.DName", cs)
        renamed = Project(
            self.depts().select_eq("DeptListPage.DeptList.DName", cs),
            (("CSName", "DeptListPage.DeptList.DName"),),
        )
        yield "join-key", renamed.join(
            self.depts().follow("DeptListPage.DeptList.ToDept"),
            [("CSName", "DeptListPage.DeptList.DName")],
        )

    def test_prunes_pinned(self):
        for kind, plan in self.plans():
            staged = university().execute(
                plan, options=QueryOptions(execution="staged")
            )
            adaptive = university().execute(
                plan, options=QueryOptions(execution="adaptive")
            )
            (prune,) = adaptive.adaptive.prunes
            assert (prune.kind, prune.link_attr) == (
                kind, "DeptListPage.DeptList.ToDept"
            )
            assert (prune.urls_before, prune.urls_after) == (3, 1)
            assert sorted(adaptive.adaptive.pruned_urls) == [
                "http://univ.example/dept/mathematics.html",
                "http://univ.example/dept/physics.html",
            ]
            assert (staged.pages, adaptive.pages) == (4, 2)
            assert adaptive.relation.rows == staged.relation.rows
