"""The light connection has one price, and a warm cache plans with it.

``SiteEnv.light_weight`` = ``NetworkModel.light_weight(mean page bytes)``
is what a cached page costs wherever a plan or a page set is priced (the
automatic ``CacheEstimate``, ``advise``, ``warm_up``).  The laws:

* on a fully warm cross-query cache the chosen plan is the measured-
  cheapest candidate — in simulated seconds and in ``downloads + w ×
  lights`` — and costs no more seconds than the cold plan cost cold;
* on a partly warm cache every estimate is ``Σ accesses × ((1 − h_P) +
  h_P × w)`` and the chosen plan is again measured-cheapest;
* plans an estimate prices equally keep their cold order, so ``w = 0``
  over a full cache plans exactly as no cache does.
"""

import sys
from pathlib import Path

import pytest

from repro import university
from repro.algebra.printer import render_expr
from repro.materialized import WorkloadQuery, advise
from repro.materialized.advisor import scheme_download_profile
from repro.optimizer import CacheEstimate
from repro.options import QueryOptions, QueryRequest
from repro.qa.cli import build_site
from repro.server import QueryServer
from repro.sitegen import UniversityConfig
from repro.sites import fuzzed
from repro.web.network import MODEM_1998, NetworkModel

ROOT = Path(__file__).resolve().parent.parent
UNI_MEDIUM = UniversityConfig(n_depts=8, n_profs=80, n_courses=200)
OFF = QueryOptions(cache="off")


def mix_queries(env) -> dict[str, str]:
    """Every distinct query of ``perfbench``'s ``MIX`` on ``env``."""
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.workloads import mix_queries as distinct
    finally:
        sys.path.remove(str(ROOT))
    depts = [dept.name for dept in env.site.depts]
    return {f"mix{i}": q.sql for i, q in enumerate(distinct(depts))}


def fill_cache(env):
    """A cross-query cache holding every page of the site."""
    cache = env.enable_cache(capacity=100_000)
    env.client.get_batch(sorted(env.site.server.urls()), cache=cache)
    return cache


def measured(env, plan) -> tuple[float, float]:
    cost = env.execute(plan).cost
    return cost.simulated_seconds, cost.priced_pages(env.light_weight)


def assert_cheapest(chosen, others, label):
    for axis, name in enumerate(("simulated seconds", "priced pages")):
        least = min(row[axis] for row in others)
        assert chosen[axis] <= least + 1e-9, (label, name, chosen, least)


# --------------------------------------------------------------------- #
# the one formula
# --------------------------------------------------------------------- #


class TestTheWeight:
    def test_modem_1998_on_the_papers_site(self):
        env = university()
        assert len(list(env.site.server.urls())) == 79
        mean = env.stats.mean_page_bytes()
        assert mean == pytest.approx(1354.38, abs=0.01)
        assert env.light_weight == pytest.approx(0.4367, abs=1e-4)
        assert env.light_weight == MODEM_1998.head_seconds() / (
            MODEM_1998.get_seconds(mean)
        )

    def test_it_is_the_round_trip_share_not_a_bandwidth_figure(self):
        fast_pipe = NetworkModel(rtt_seconds=0.25, bytes_per_second=1e9)
        assert fast_pipe.light_weight(1400) == pytest.approx(1.0, abs=1e-4)
        assert NetworkModel(rtt_seconds=0.0).light_weight(1400) == 0.0
        assert NetworkModel(rtt_seconds=0.0).light_weight(0) == 0.0
        for model in (MODEM_1998, fast_pipe, NetworkModel(rtt_seconds=5.0)):
            assert 0.0 <= model.light_weight(1) <= 1.0

    def test_mean_page_bytes_weighs_schemes_by_their_pages(self):
        env = university()
        server = env.site.server
        sizes = [len(server.resource(url).html) for url in server.urls()]
        assert env.stats.mean_page_bytes() == pytest.approx(
            sum(sizes) / len(sizes)
        )

    def test_the_automatic_estimate_carries_it(self):
        env = university()
        assert env.cache_estimate() is None  # no cache, no estimate
        env.enable_cache()
        env.query("SELECT DName FROM Dept")
        estimate = env.cache_estimate()
        assert estimate.light_weight == env.light_weight > 0
        assert env.plan("SELECT DName FROM Dept").cache_estimate == estimate


# --------------------------------------------------------------------- #
# (a) fully warm: the chosen plan is the measured-cheapest candidate
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "site",
    ["uni_medium", "bibliography", "movies", "fuzz:17", "fuzz:42", "fuzz:99"],
)
def test_on_a_full_cache_the_chosen_plan_is_measured_cheapest(site):
    if site == "uni_medium":
        env = university(UNI_MEDIUM)
        queries = mix_queries(env)
    else:
        env, queries = build_site(site)
    fill_cache(env)
    for label, sql in queries.items():
        cold = env.query(sql, options=OFF).cost
        planned = env.plan(sql)
        assert planned.cache_estimate is not None
        assert set(planned.cache_estimate.hit_rates.values()) == {1.0}
        runs = [measured(env, c.expr) for c in planned.candidates]
        assert_cheapest(runs[0], runs, label)
        # ... and a warm cache never makes the paper's metric worse
        assert runs[0][0] <= cold.simulated_seconds + 1e-9, label


# --------------------------------------------------------------------- #
# (b) partly warm: the estimate is the formula, the choice still holds
# --------------------------------------------------------------------- #


def test_on_a_partly_warm_cache_the_estimate_is_the_formula():
    env = university(UNI_MEDIUM)
    cache = env.enable_cache(capacity=4096)
    w = env.light_weight

    def warm_the_professors():
        cache.clear()
        env.query("SELECT PName, Rank FROM Professor")

    warm_the_professors()
    estimate = env.cache_estimate()
    assert estimate.hit_rates == {"ProfListPage": 1.0, "ProfPage": 1.0}
    queries = mix_queries(env)
    for label in ("mix0", "mix1", "mix8", "mix9", "mix16", "mix17"):
        warm_the_professors()
        planned = env.plan(queries[label])
        assert planned.cache_estimate == estimate
        runs = []
        for candidate in planned.candidates:
            accesses = scheme_download_profile(env.cost_model, candidate.expr)
            priced = sum(
                count * ((1 - estimate.rate(p)) + estimate.rate(p) * w)
                for p, count in accesses.items()
            )
            assert candidate.cost == pytest.approx(priced, rel=1e-9)
            warm_the_professors()
            runs.append(measured(env, candidate.expr))
        assert_cheapest(runs[0], runs, label)


# --------------------------------------------------------------------- #
# (c) priced ties keep the cold order
# --------------------------------------------------------------------- #


def _order(result) -> list[str]:
    return [render_expr(c.expr) for c in result.candidates]


@pytest.mark.parametrize("site", ["university", "bibliography", "fuzz:42"])
def test_free_round_trips_over_a_full_cache_plan_as_no_cache_does(site):
    env, queries = build_site(site)
    env.client.network = NetworkModel(rtt_seconds=0.0)
    assert env.light_weight == 0.0
    everything = CacheEstimate({name: 1.0 for name in env.scheme.page_schemes})
    fill_cache(env)
    assert env.cache_estimate() == everything
    for sql in queries.values():
        cold = env.planner.plan_query(env.sql(sql))
        warm = env.plan(sql)
        assert warm.cache_estimate == everything
        assert {c.cost for c in warm.candidates} == {0.0}
        assert _order(warm) == _order(cold)
        assert warm.uncached_cost == cold.best.cost


def test_a_priced_tie_goes_to_the_plan_that_is_cheapest_cold():
    """Example 7.2 on a full cache at any weight: every access costs ``w``,
    and the pointer chase — fewest accesses — leads as it does cold."""
    env = university(UNI_MEDIUM)
    sql = mix_queries(env)["mix0"]
    cold = env.planner.plan_query(env.sql(sql))
    for weight in (0.0, 0.001, 0.25, env.light_weight, 1.0):
        full = CacheEstimate(
            {name: 1.0 for name in env.scheme.page_schemes}, weight
        )
        warm = env.planner.plan_query(env.sql(sql), cache_estimate=full)
        assert render_expr(warm.best.expr) == render_expr(cold.best.expr)
        assert warm.best.cost == pytest.approx(weight * cold.best.cost)


# --------------------------------------------------------------------- #
# (e) the advisor and the warm-up price a light connection the same way
# --------------------------------------------------------------------- #


def _workload(env):
    return [
        WorkloadQuery(QueryRequest(query=sql), frequency=rank + 1)
        for rank, (_, sql) in enumerate(sorted(env.site.queries().items()))
    ]


class TestOneDefault:
    def test_advise_defaults_to_the_environments_weight(self):
        env = fuzzed(17)
        workload = _workload(env)
        report = advise(env, workload, mutation_rate=0.2)
        assert report.light_weight == env.light_weight
        for candidate in report.candidates:
            assert candidate.upkeep == candidate.pages * (env.light_weight + 0.2)
        explicit = advise(
            env, workload, mutation_rate=0.2, light_weight=env.light_weight
        )
        assert explicit.candidates == report.candidates
        assert explicit.estimates == report.estimates

    def test_an_explicit_weight_is_used_as_given(self):
        env = fuzzed(17)
        report = advise(
            env, _workload(env), mutation_rate=0.2, light_weight=0.25
        )
        assert report.light_weight == 0.25
        for candidate in report.candidates:
            assert candidate.upkeep == candidate.pages * (0.25 + 0.2)

    def test_warm_up_defaults_to_the_environments_weight(self):
        env = fuzzed(17)
        workload = _workload(env)
        report = QueryServer(env, start=False).warm_up(
            workload, mutation_rate=0.1
        )
        assert report.advisor.light_weight == env.light_weight
        given = QueryServer(fuzzed(17), start=False).warm_up(
            workload, mutation_rate=0.1, light_weight=0.25
        )
        assert given.advisor.light_weight == 0.25
