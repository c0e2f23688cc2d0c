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
* CACHE-PLAN — cache-aware plan selection.  Cold, Algorithm 1 picks the
  pointer-chase plan.  After the pointer-join plan's pages are warmed,
  :meth:`CacheEstimate.from_cache` re-ranks the candidates and the join
  plan wins — a different, cheaper plan chosen *because* of the cache.

Run as a script for the tables alone: ``python bench_cache.py [--quick]``
(with ``src/`` on PYTHONPATH), or through pytest for the assertions.
"""

import argparse

import pytest

from repro.qa.oracle import counted_wraps
from repro.sitegen import UniversityConfig
from repro.sites import university

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


def run_plan_flip(config):
    """Warm the pointer-join plan's pages, then re-plan Example 7.2.

    Returns ``(cold_planned, warm_planned)`` from the same environment
    (cold planned before the cache is filled)."""
    env = university(config)
    env.enable_cache(capacity=4096)
    cold_planned = env.plan(SQL)
    join = find_plan(cold_planned, ["SessionListPage", "⋈"])
    env.execute(join.expr)  # downloads (and caches) the join's pointer set
    warm_planned = env.plan(SQL)
    return cold_planned, warm_planned


def plan_flip_rows(cold_planned, warm_planned):
    def describe(tag, planned):
        best = planned.best
        strategy = (
            "join" if "SessionListPage" in best.render() else "chase"
        )
        return {
            "cache": tag,
            "chosen strategy": strategy,
            "C(best)": f"{best.cost:.1f}",
            "plain C(best)": (
                f"{planned.uncached_cost:.1f}"
                if planned.uncached_cost is not None
                else f"{best.cost:.1f}"
            ),
        }

    return [
        describe("cold", cold_planned),
        describe("warm (join pages)", warm_planned),
    ]


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
def flip():
    cold_planned, warm_planned = run_plan_flip(FULL_CONFIG)
    rows = plan_flip_rows(cold_planned, warm_planned)
    record(
        "CACHE-PLAN",
        "Example 7.2 plan choice before/after warming the pointer-join "
        "plan's pages",
        table(rows, ["cache", "chosen strategy", "C(best)", "plain C(best)"]),
        data=rows,
        queries={"ex72": SQL},
    )
    return cold_planned, warm_planned


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
    def test_cold_winner_is_the_chase_plan(self, flip):
        cold_planned, _ = flip
        assert "SessionListPage" not in cold_planned.best.render()

    def test_warm_cache_flips_to_a_different_cheaper_plan(self, flip):
        cold_planned, warm_planned = flip
        assert warm_planned.best.render() != cold_planned.best.render()
        assert warm_planned.best.cost < cold_planned.best.cost

    def test_expected_saving_is_reported(self, flip):
        _, warm_planned = flip
        assert warm_planned.uncached_cost is not None
        assert warm_planned.cost.pages_saved > 0


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

    cold_planned, warm_planned = run_plan_flip(config)
    flip_rows = plan_flip_rows(cold_planned, warm_planned)
    record(
        "CACHE-PLAN",
        "plan choice before/after warming the pointer-join pages"
        + (" (quick)" if args.quick else ""),
        table(
            flip_rows,
            ["cache", "chosen strategy", "C(best)", "plain C(best)"],
        ),
        data=flip_rows,
        queries={"ex72": SQL},
    )
    assert warm_planned.best.cost <= cold_planned.best.cost, (
        "warm planning made the chosen plan worse"
    )
    print("smoke checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
