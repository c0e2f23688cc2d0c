"""Tests for the materialization advisor and the server warm-up path
(docs/MATERIALIZED.md)."""

import pytest

from repro.errors import MaterializationError
from repro.materialized import WorkloadQuery, advise, random_view_set
from repro.materialized.advisor import (
    ViewCandidate,
    _choose,
    scheme_download_profile,
)
from repro.optimizer.cost import CacheEstimate
from repro.options import QueryRequest
from repro.qa.oracle import counted_wraps
from repro.server import QueryServer
from repro.sites import fuzzed


@pytest.fixture(scope="module")
def env():
    return fuzzed(17)


@pytest.fixture(scope="module")
def workload(env):
    queries = env.site.queries()
    frequencies = {name: 6 - rank for rank, name in enumerate(sorted(queries))}
    return [
        WorkloadQuery(QueryRequest(query=queries[name]), frequency=freq)
        for name, freq in sorted(frequencies.items())
    ]


class TestWorkloadQuery:
    def test_validates_request_type(self):
        with pytest.raises(MaterializationError):
            WorkloadQuery("SELECT * FROM X")

    def test_validates_frequency(self):
        with pytest.raises(MaterializationError):
            WorkloadQuery(QueryRequest(query="q"), frequency=-1.0)


class TestDownloadProfile:
    def test_decomposition_is_additive(self, env, workload):
        """The per-scheme shares must recompose the exact cost drop of
        covering any scheme set — the property the knapsack relies on."""
        plan = env.plan(workload[0].request.query).best.expr
        profile = scheme_download_profile(env.cost_model, plan)
        assert profile  # the plan downloads something
        cold = env.cost_model.with_cache(None).cost(plan)
        covered = env.cost_model.with_cache(
            CacheEstimate(
                {name: 1.0 for name in profile}, light_weight=0.0
            )
        ).cost(plan)
        assert cold - covered == pytest.approx(sum(profile.values()))


class TestChoose:
    def test_exact_dp_beats_greedy_density(self):
        """Budget 10: the greedy density order picks Y (value 7) and gets
        stuck; the exact knapsack finds X (value 10)."""
        candidates = [
            ViewCandidate("X", pages=10, downloads_saved=10.0, upkeep=0.0),
            ViewCandidate("Y", pages=6, downloads_saved=7.0, upkeep=0.0),
            ViewCandidate("Z", pages=5, downloads_saved=5.5, upkeep=0.0),
        ]
        assert _choose(candidates, page_budget=10) == ("X",)

    def test_unbudgeted_takes_every_profitable(self):
        candidates = [
            ViewCandidate("A", pages=5, downloads_saved=2.0, upkeep=1.0),
            ViewCandidate("B", pages=5, downloads_saved=1.0, upkeep=3.0),
        ]
        assert _choose(candidates, page_budget=None) == ("A",)

    def test_zero_budget_chooses_nothing(self):
        candidates = [
            ViewCandidate("A", pages=1, downloads_saved=9.0, upkeep=0.0)
        ]
        assert _choose(candidates, page_budget=0) == ()

    def test_oversized_candidates_skipped(self):
        candidates = [
            ViewCandidate("A", pages=50, downloads_saved=9.0, upkeep=0.0),
            ViewCandidate("B", pages=3, downloads_saved=1.0, upkeep=0.0),
        ]
        assert _choose(candidates, page_budget=10) == ("B",)


class TestAdvise:
    def test_validates_inputs(self, env, workload):
        with pytest.raises(MaterializationError):
            advise(env, workload, mutation_rate=1.5)
        with pytest.raises(MaterializationError):
            advise(env, [], mutation_rate=0.1)
        with pytest.raises(MaterializationError):
            advise(env, ["not-a-workload-query"], mutation_rate=0.1)

    def test_chooses_queried_schemes_under_budget(self, env, workload):
        report = advise(
            env, workload, mutation_rate=0.2, page_budget=16
        )
        assert report.chosen
        assert report.chosen_pages <= 16
        saved = {c.scheme for c in report.candidates if c.downloads_saved > 0}
        assert set(report.chosen) <= saved  # never stores an unqueried scheme

    def test_model_prefers_chosen_over_all_and_none(self, env, workload):
        report = advise(
            env, workload, mutation_rate=0.2, page_budget=16
        )
        assert report.estimates["chosen"] <= report.estimates["all"]
        assert report.estimates["chosen"] <= report.estimates["none"]

    def test_high_mutation_rate_shrinks_the_view_set(self, env, workload):
        """Revalidation upkeep scales with the mutation rate: a hotter
        site makes fewer schemes worth keeping."""
        calm = advise(env, workload, mutation_rate=0.0)
        hot = advise(env, workload, mutation_rate=1.0)
        assert set(hot.chosen) <= set(calm.chosen)
        assert hot.chosen_pages <= calm.chosen_pages


class TestRandomViewSet:
    def test_deterministic_and_budgeted(self, env, workload):
        report = advise(env, workload, mutation_rate=0.2, page_budget=16)
        first = random_view_set(report.candidates, 16, seed=3)
        second = random_view_set(report.candidates, 16, seed=3)
        assert first == second
        by_name = {c.scheme: c for c in report.candidates}
        assert sum(by_name[name].pages for name in first) <= 16


class TestServerWarmup:
    def test_warm_up_makes_chosen_queries_download_free(self, workload):
        env = fuzzed(17)  # private env: the warm-up mutates its cache
        server = QueryServer(env, start=False)
        report = server.warm_up(workload, mutation_rate=0.1)
        assert report.advisor.chosen
        assert report.warmed_pages > 0
        assert len(env.page_cache) == report.warmed_pages
        # the first query after warm-up revalidates, never re-downloads
        queries = env.site.queries()
        name = sorted(queries)[0]
        before = env.client.log.snapshot()
        with counted_wraps(env.registry) as wraps:
            env.query(queries[name])
        delta = env.client.log.delta(before)
        assert delta.page_downloads == 0
        assert delta.light_connections > 0
        # ... and parses nothing: the crawl left its tuples on the entries
        assert wraps == []

    def test_unchosen_pages_stay_out_of_the_cache(self, workload):
        env = fuzzed(17)
        server = QueryServer(env, start=False)
        report = server.warm_up(workload, mutation_rate=0.1)
        chosen = report.advisor.materialize_set()
        counts = env.page_cache.scheme_counts()
        assert set(counts) == chosen
        assert report.transit_pages > 0  # traversal crossed other schemes
