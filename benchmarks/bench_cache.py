"""CACHE — the cross-query page cache on the Example 7.2 workload.

The paper's cost function charges one page per download because in 1998
every access paid a full transfer.  A cross-query cache changes the
arithmetic the same way the Section 8 materialized views do, but at the
page-fetch layer: a warm page costs a light connection (revalidation)
instead of a download, and a page revalidated earlier in the same query
costs nothing at all.

Two experiments over the crossover site (3 departments, 20 professors,
50 courses — where pointer-chase beats pointer-join cold):

* CACHE — the Example 7.2 query run cold then warm under each policy.
  ``off`` must reproduce the uncached engine bit-for-bit, ``per_query``
  must re-download everything each query, and ``cross_query`` must answer
  the warm query from revalidations alone (0 downloads) without parsing a
  page again (``wraps`` 0: the wrapped tuple lives on the cache entry).
* CACHE-PLAN — cache-aware plan selection, a cached page priced at one
  light connection (``SiteEnv.light_weight``).  Two cases, each planned
  cold, then again after the pages of a plan that *lost* cold were
  warmed, with the chosen plan executed both times (measured downloads,
  light connections, ``downloads + w × lights``, simulated seconds):

  - Example 7.2, join plan's pages warmed: the join's pointer set covers
    most of the chase's (every course page it follows), so the chase gets
    cheaper too and stays.
  - the Introduction's full ``PaperAuthor`` scan, via-authors pages
    warmed: the two navigations share only the home page, so the choice
    flips from via-conferences to via-authors — a different, cheaper plan
    chosen *because* of the cache.

Run as a script for the tables alone: ``python bench_cache.py [--quick]``
(with ``src/`` on PYTHONPATH), or through pytest for the assertions.
"""

import argparse
from typing import Callable, NamedTuple

import pytest

from repro.options import QueryOptions
from repro.qa.oracle import counted_wraps
from repro.sitegen import UniversityConfig
from repro.sites import bibliography, university

from _bench_utils import record, table

SQL = (
    "SELECT Professor.PName, email FROM Course, CourseInstructor, "
    "Professor, ProfDept WHERE Course.CName = CourseInstructor.CName "
    "AND CourseInstructor.PName = Professor.PName "
    "AND Professor.PName = ProfDept.PName "
    "AND ProfDept.DName = 'Computer Science' AND Type = 'Graduate'"
)

#: The bench_crossover point where chase beats join cold — so the warm
#: cache has a cold winner to flip.
FULL_CONFIG = UniversityConfig(n_depts=3, n_profs=20, n_courses=50)

#: Paper cardinalities, for the --quick smoke run.
QUICK_CONFIG = UniversityConfig()

POLICIES = ["off", "per_query", "cross_query"]

COLUMNS = [
    "policy", "run", "pages", "light", "saved", "wraps", "sim seconds", "rows",
]


def run_sweep(config):
    """Cold + warm run of the Example 7.2 query under each policy.

    Returns (rows, raw) where raw is ``[(policy, run, result), ...]`` plus
    the uncached reference result under key ``("uncached", "cold", ...)``.
    """
    rows = []
    raw = []

    env = university(config)
    reference = env.query(SQL)
    raw.append(("uncached", "cold", reference))

    for policy in POLICIES:
        env = university(config)
        if policy != "off":
            env.enable_cache(capacity=4096, policy=policy)
        for run in ("cold", "warm"):
            with counted_wraps(env.registry) as wraps:
                result = env.query(SQL)
            rows.append(
                {
                    "policy": policy,
                    "run": run,
                    "pages": result.pages,
                    "light": result.log.light_connections,
                    "saved": result.pages_saved,
                    "wraps": len(wraps),
                    "sim seconds": f"{result.log.simulated_seconds:.2f}",
                    "rows": len(result.relation),
                }
            )
            raw.append((policy, run, result))
    return rows, raw


def find_plan(result, include, exclude=()):
    for candidate in result.candidates:
        text = candidate.render()
        if all(m in text for m in include) and not any(
            m in text for m in exclude
        ):
            return candidate
    return None


INTRO_SQL = "SELECT ConfName, Year, Title, AName FROM PaperAuthor"


class PlanCase(NamedTuple):
    """One CACHE-PLAN query: who wins cold, and the cold loser to warm."""

    query: str
    sql: str
    build: Callable  # config -> SiteEnv
    #: what every rendering of the loser's strategy contains (the first
    #: alone tells the two strategies apart)
    loser_markers: tuple
    loser: str
    winner: str


PLAN_CASES = [
    PlanCase("ex72", SQL, university, ("SessionListPage", "⋈"), "join", "chase"),
    PlanCase(
        "intro", INTRO_SQL, lambda config: bibliography(),
        ("ToAuthorList",), "via authors", "via conferences",
    ),
]

PLAN_COLUMNS = [
    "query", "cache", "chosen strategy", "C(best)", "plain C(best)",
    "pages", "light", "priced pages", "sim seconds",
]


def run_plan_case(case, config):
    """Plan cold and run the choice (cache bypassed, so it stays cold); warm
    the pages of the cold loser; plan again and run that choice.

    Returns ``(runs, rows)``: ``[(planned, result), ...]`` cold then warm,
    and their table rows."""
    env = case.build(config)
    env.enable_cache(capacity=4096)
    cold_planned = env.plan(case.sql)
    cold_run = env.execute(
        cold_planned.best.expr, options=QueryOptions(cache="off")
    )
    env.execute(find_plan(cold_planned, case.loser_markers).expr)  # caches them
    warm_planned = env.plan(case.sql)
    warm_run = env.execute(warm_planned.best.expr)
    runs = [(cold_planned, cold_run), (warm_planned, warm_run)]
    rows = []
    for tag, (planned, result) in zip(("cold", f"warm ({case.loser} pages)"), runs):
        best = planned.best
        lost_cold = case.loser_markers[0] in best.render()
        rows.append(
            {
                "query": case.query,
                "cache": tag,
                "chosen strategy": case.loser if lost_cold else case.winner,
                "C(best)": f"{best.cost:.1f}",
                "plain C(best)": (
                    f"{planned.uncached_cost:.1f}"
                    if planned.uncached_cost is not None
                    else f"{best.cost:.1f}"
                ),
                "pages": result.pages,
                "light": result.log.light_connections,
                "priced pages": (
                    f"{result.cost.priced_pages(env.light_weight):.1f}"
                ),
                "sim seconds": f"{result.log.simulated_seconds:.2f}",
            }
        )
    return runs, rows


def run_plan_cases(config, title):
    """Every CACHE-PLAN case, recorded; returns ``{query id: runs}``."""
    by_query = {}
    rows = []
    for case in PLAN_CASES:
        by_query[case.query], case_rows = run_plan_case(case, config)
        rows.extend(case_rows)
    record(
        "CACHE-PLAN",
        title,
        table(rows, PLAN_COLUMNS),
        data=rows,
        queries={case.query: case.sql for case in PLAN_CASES},
    )
    return by_query


@pytest.fixture(scope="module")
def sweep_rows_and_raw():
    rows, raw = run_sweep(FULL_CONFIG)
    record(
        "CACHE",
        "Example 7.2 query, cold vs warm, per cache policy "
        "(3 departments, 20 professors, 50 courses)",
        table(rows, COLUMNS),
        data=rows,
        queries={"ex72": SQL},
    )
    return rows, raw


@pytest.fixture(scope="module")
def sweep(sweep_rows_and_raw):
    return sweep_rows_and_raw[1]


@pytest.fixture(scope="module")
def plan_cases():
    return run_plan_cases(
        FULL_CONFIG,
        "plan choice and measured cost before/after warming the pages of a "
        "plan that lost cold",
    )


def _by_key(raw):
    return {(policy, run): result for policy, run, result in raw}


class TestPolicies:
    def test_off_matches_uncached_engine_bit_for_bit(self, sweep):
        results = _by_key(sweep)
        reference = results[("uncached", "cold")].cost
        cold = results[("off", "cold")].cost
        assert cold.pages == reference.pages
        assert cold.bytes == reference.bytes
        assert cold.light_connections == reference.light_connections
        assert cold.simulated_seconds == reference.simulated_seconds
        # the warm run's seconds are a delta from a running per-client
        # total, so they match only to float precision
        warm = results[("off", "warm")].cost
        assert warm.pages == reference.pages
        assert warm.bytes == reference.bytes
        assert warm.light_connections == reference.light_connections
        assert warm.simulated_seconds == pytest.approx(
            reference.simulated_seconds
        )

    def test_cold_runs_pay_full_price_under_every_policy(self, sweep):
        results = _by_key(sweep)
        reference = results[("uncached", "cold")]
        for policy in POLICIES:
            assert results[(policy, "cold")].pages == reference.pages

    def test_per_query_cache_does_not_survive_the_query(self, sweep):
        results = _by_key(sweep)
        assert (
            results[("per_query", "warm")].pages
            == results[("per_query", "cold")].pages
        )

    def test_cross_query_warm_run_downloads_strictly_fewer_pages(self, sweep):
        results = _by_key(sweep)
        cold = results[("cross_query", "cold")]
        warm = results[("cross_query", "warm")]
        assert warm.pages < cold.pages
        assert warm.pages == 0  # nothing changed between the two runs
        assert warm.pages_saved > 0
        assert warm.log.light_connections == warm.revalidations

    def test_only_the_cross_query_warm_run_parses_nothing(
        self, sweep_rows_and_raw
    ):
        rows, _ = sweep_rows_and_raw
        for row in rows:
            warm_cross_query = (row["policy"], row["run"]) == ("cross_query", "warm")
            assert row["wraps"] == (0 if warm_cross_query else row["pages"]), row

    def test_every_run_returns_the_same_relation(self, sweep):
        reference = sweep[0][2].relation
        for _policy, _run, result in sweep[1:]:
            assert result.relation.same_contents(reference)


class TestPlanFlip:
    def test_cold_winners(self, plan_cases):
        (ex72, _), _ = plan_cases["ex72"]
        assert "SessionListPage" not in ex72.best.render()  # the chase
        (intro, _), _ = plan_cases["intro"]
        assert "ToAuthorList" not in intro.best.render()  # via conferences

    def test_overlapping_warm_keeps_the_chase_and_makes_it_cheaper(
        self, plan_cases
    ):
        (cold, cold_run), (warm, warm_run) = plan_cases["ex72"]
        assert warm.best.render() == cold.best.render()
        assert warm.best.cost < cold.best.cost
        assert warm.uncached_cost == cold.best.cost
        # the same accesses, most of them now light connections
        assert warm_run.pages + warm_run.log.light_connections == cold_run.pages
        assert warm_run.pages < warm_run.log.light_connections

    def test_disjoint_warm_flips_to_a_different_cheaper_plan(self, plan_cases):
        (cold, cold_run), (warm, warm_run) = plan_cases["intro"]
        assert warm.best.render() != cold.best.render()
        assert "ToAuthorList" in warm.best.render()
        assert warm.best.cost < cold.best.cost < warm.uncached_cost
        assert warm_run.pages == 0
        assert warm_run.relation.same_contents(cold_run.relation)

    @pytest.mark.parametrize("query", ["ex72", "intro"])
    def test_the_warm_choice_pays_in_the_papers_metric(self, plan_cases, query):
        (_, cold_run), (warm, warm_run) = plan_cases[query]
        assert (
            warm_run.log.simulated_seconds < cold_run.log.simulated_seconds
        )
        assert warm.uncached_cost is not None
        assert warm.cost.pages_saved > 0


def test_bench_warm_query(benchmark):
    env = university(FULL_CONFIG)
    env.enable_cache(capacity=4096)
    env.query(SQL)  # warm
    result = benchmark(lambda: env.query(SQL))
    assert result.pages == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small site (CI smoke run)",
    )
    args = parser.parse_args(argv)
    config = QUICK_CONFIG if args.quick else FULL_CONFIG

    rows, raw = run_sweep(config)
    record(
        "CACHE",
        "cold vs warm per cache policy" + (" (quick)" if args.quick else ""),
        table(rows, COLUMNS),
        data=rows,
        queries={"ex72": SQL},
    )
    results = _by_key(raw)
    reference = results[("uncached", "cold")]
    assert results[("off", "cold")].cost.pages == reference.cost.pages, (
        "policy off drifted from the uncached engine"
    )
    assert (
        results[("cross_query", "warm")].pages
        < results[("cross_query", "cold")].pages
    ), "warm cross_query run did not save any downloads"
    for _policy, _run, result in raw:
        assert result.relation.same_contents(reference.relation), (
            "a cached run changed the answer"
        )

    for runs in run_plan_cases(
        config,
        "plan choice and measured cost before/after warming a cold loser's "
        "pages" + (" (quick)" if args.quick else ""),
    ).values():
        (cold_planned, cold_run), (warm_planned, warm_run) = runs
        assert warm_planned.best.cost <= cold_planned.best.cost, (
            "warm planning made the chosen plan worse"
        )
        assert (
            warm_run.log.simulated_seconds <= cold_run.log.simulated_seconds
        ), "the warm choice cost more simulated seconds than the cold one"
    print("smoke checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
