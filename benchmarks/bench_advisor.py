"""ADVISOR — workload-driven view selection under a mutation stream.

The Section 8 store materializes the *whole* site; the advisor
(:mod:`repro.materialized.advisor`) picks which page-schemes are worth
keeping for a given workload, a mutation rate, and a page budget.  This
experiment replays the same update-heavy traffic against four policies:

* **advisor** — the schemes the advisor chose under the page budget;
* **all** — the paper's full materialization (every page-scheme);
* **none** — virtual views: every execution re-navigates the live site;
* **random** — a seeded workload-blind pick under the same budget.

Each round a seeded fraction of the site is silently touched
(:func:`~repro.sitegen.mutations.perturb_server`), the store is refreshed
with the k-lane batched :func:`~repro.materialized.maintenance.
batch_refresh`, and the workload runs in ``max_age``-trust mode (queries
pay only for pages the store does not retain).  Total cost counts every
download plus :data:`LIGHT_WEIGHT` per light connection — the advisor's
own pricing, measured instead of modeled.  The suite asserts the advisor
strictly beats *both* all-views and no-views on that total.

A second table (``ADVISOR-SHARD``) checks the sharded store's freshness
laws for 1, 2 and 4 shards: a warm refresh costs exactly one light
connection per stored page and zero downloads; after a perturbation the
refresh re-downloads exactly the touched pages, shard-locally; and every
query answer is bit-for-bit identical to the unsharded store's.

Run as a script: ``python bench_advisor.py [--quick]`` (with ``src/`` on
PYTHONPATH), or through pytest for the assertions.
"""

import argparse

import pytest

from repro.materialized import (
    MaterializedEngine,
    MaterializedStore,
    WorkloadQuery,
    advise,
    batch_refresh,
    random_view_set,
)
from repro.options import QueryRequest
from repro.sitegen import perturb_server
from repro.sites import fuzzed
from repro.web import WebClient

from _bench_utils import record, table

SITE_SEED = 17

#: workload frequency by query rank (sorted names); zipf-ish skew
FREQ_BY_RANK = (6, 3, 1, 1, 1)

#: fraction of the site the mutation stream touches per round
MUTATION_RATE = 0.2

#: stored-page budget the advisor (and the random baseline) run under
PAGE_BUDGET = 16

#: one light connection priced in page units (advisor + measured total)
LIGHT_WEIGHT = 0.25

#: trust window for query-time checks: refresh pays, queries ride free
MAX_AGE = 1_000_000

WORKERS = 4
SHARDS = 2

FULL_ROUNDS = 4
QUICK_ROUNDS = 2

COLUMNS = [
    "policy",
    "schemes",
    "stored pages",
    "refresh downloads",
    "query downloads",
    "light conns",
    "total cost",
]

SHARD_COLUMNS = [
    "shards",
    "stored pages",
    "warm lights",
    "warm downloads",
    "stale downloads",
    "touched",
    "answers",
]


def build_workload(env):
    """The site's query suite with zipf-ish frequencies, plus the plans
    every policy replays (planned once, on the virtual cost model)."""
    queries = env.site.queries()
    names = sorted(queries)
    frequencies = {
        name: FREQ_BY_RANK[rank] if rank < len(FREQ_BY_RANK) else 1
        for rank, name in enumerate(names)
    }
    workload = [
        WorkloadQuery(
            QueryRequest(query=queries[name]), frequency=frequencies[name]
        )
        for name in names
    ]
    plans = {name: env.plan(queries[name]).best.expr for name in names}
    return names, frequencies, workload, plans


def run_policy(selection, rounds: int) -> dict:
    """Replay ``rounds`` of mutate -> refresh -> workload under one
    materialization policy (``selection``: page-scheme set, or None for
    fully virtual views) on a fresh copy of the site."""
    env = fuzzed(SITE_SEED)
    names, frequencies, _workload, plans = build_workload(env)

    refresh_downloads = 0
    query_downloads = 0
    lights = 0
    stored_pages = 0

    if selection is None:
        for round_index in range(rounds):
            perturb_server(
                env.site.server,
                seed=SITE_SEED * 100 + round_index,
                fraction=MUTATION_RATE,
            )
            for name in names:
                for _ in range(frequencies[name]):
                    query_downloads += env.execute(plans[name]).pages
    else:
        store = MaterializedStore(
            env.scheme,
            WebClient(env.site.server),
            env.registry,
            retain_schemes=selection,
            shards=SHARDS,
        )
        store.populate()
        stored_pages = store.page_count()
        engine = MaterializedEngine(store, env.planner)
        for round_index in range(rounds):
            perturb_server(
                env.site.server,
                seed=SITE_SEED * 100 + round_index,
                fraction=MUTATION_RATE,
            )
            report = batch_refresh(store, workers=WORKERS)
            refresh_downloads += report.downloads
            lights += report.light_connections
            for name in names:
                for _ in range(frequencies[name]):
                    result = engine.execute(plans[name], max_age=MAX_AGE)
                    query_downloads += result.pages
                    lights += result.light_connections

    downloads = refresh_downloads + query_downloads
    return {
        "schemes": "—" if selection is None else str(len(selection)),
        "stored pages": stored_pages,
        "refresh downloads": refresh_downloads,
        "query downloads": query_downloads,
        "light conns": lights,
        "total cost": f"{downloads + LIGHT_WEIGHT * lights:.2f}",
    }


def run_advisor_comparison(rounds: int) -> list:
    """One row per policy; the advisor's decision comes from the same
    workload the replay measures."""
    env = fuzzed(SITE_SEED)
    _names, _frequencies, workload, _plans = build_workload(env)
    report = advise(
        env,
        workload,
        mutation_rate=MUTATION_RATE,
        page_budget=PAGE_BUDGET,
        light_weight=LIGHT_WEIGHT,
    )
    all_schemes = frozenset(c.scheme for c in report.candidates)
    random_schemes = frozenset(
        random_view_set(report.candidates, PAGE_BUDGET, seed=3)
    )
    policies = [
        ("advisor", report.materialize_set()),
        ("all", all_schemes),
        ("none", None),
        ("random", random_schemes),
    ]
    rows = []
    for policy, selection in policies:
        row = {"policy": policy, **run_policy(selection, rounds)}
        if policy == "advisor":
            row["schemes"] = ",".join(sorted(report.chosen))
        rows.append(row)
    return rows


def query_digests(env, store) -> list:
    """Canonical answers of the whole query suite over ``store`` (trusting
    reads: freshness is the refresh's job here, not the query's)."""
    engine = MaterializedEngine(store, env.planner)
    digests = []
    for name, query in sorted(env.site.queries().items()):
        plan = env.plan(query).best.expr
        digests.append(engine.execute(plan, check=False).relation.canonical())
    return digests


def run_shard_laws() -> list:
    """Warm/stale freshness laws + digest equality for 1, 2, 4 shards."""
    rows = []
    reference = None
    for shards in (1, 2, 4):
        env = fuzzed(SITE_SEED)
        store = MaterializedStore(
            env.scheme, WebClient(env.site.server), env.registry, shards=shards
        )
        store.populate()
        log = store.client.log

        before = log.snapshot()
        warm = batch_refresh(store, workers=WORKERS)
        warm_delta = log.delta(before)

        touched = perturb_server(
            env.site.server, seed=SITE_SEED + 1, fraction=0.25
        )
        before = log.snapshot()
        stale = batch_refresh(store, workers=WORKERS)
        stale_delta = log.delta(before)

        digests = query_digests(env, store)
        if reference is None:
            reference = digests
        rows.append(
            {
                "shards": shards,
                "stored pages": store.page_count(),
                "warm lights": warm_delta.light_connections,
                "warm downloads": warm_delta.page_downloads,
                "stale downloads": stale_delta.page_downloads,
                "touched": len(touched),
                "answers": "match" if digests == reference else "DIFFER",
                # carried into the JSON rows, not table columns
                "_warm_report": warm,
                "_stale_report": stale,
                "_touched_urls": touched,
                "_store": store,
            }
        )
    return rows


def check_advisor_rows(rows: list) -> None:
    by_policy = {row["policy"]: row for row in rows}
    advisor_cost = float(by_policy["advisor"]["total cost"])
    assert advisor_cost < float(by_policy["all"]["total cost"]), (
        "advisor did not beat full materialization: "
        f"{advisor_cost} vs {by_policy['all']['total cost']}"
    )
    assert advisor_cost < float(by_policy["none"]["total cost"]), (
        "advisor did not beat virtual views: "
        f"{advisor_cost} vs {by_policy['none']['total cost']}"
    )


def check_shard_rows(rows: list) -> None:
    for row in rows:
        store = row["_store"]
        # warm refresh: one light per stored page, zero downloads —
        # per shard, not just in aggregate
        assert row["warm downloads"] == 0
        assert row["warm lights"] == row["stored pages"]
        for shard_row in row["_warm_report"].shards:
            assert shard_row.light_connections == shard_row.pages
            assert shard_row.downloads == 0
        # stale refresh: exactly the touched pages, shard-locally
        assert row["stale downloads"] == row["touched"]
        touched = set(row["_touched_urls"])
        for index, shard_row in enumerate(row["_stale_report"].shards):
            shard_urls = {page.url for page in store.by_shard()[index]}
            assert shard_row.downloads == len(touched & shard_urls)
        assert row["answers"] == "match"


def _public(rows: list) -> list:
    return [
        {k: v for k, v in row.items() if not k.startswith("_")}
        for row in rows
    ]


@pytest.fixture(scope="module")
def advisor_rows():
    rows = run_advisor_comparison(FULL_ROUNDS)
    record(
        "ADVISOR",
        "materialization policies under an update-heavy workload "
        f"({FULL_ROUNDS} rounds, {MUTATION_RATE:.0%} touched/round, "
        f"budget {PAGE_BUDGET} pages)",
        table(rows, COLUMNS),
        data=rows,
        meta={
            "site": f"fuzz:{SITE_SEED}",
            "mutation_rate": MUTATION_RATE,
            "page_budget": PAGE_BUDGET,
            "light_weight": LIGHT_WEIGHT,
        },
    )
    return rows


@pytest.fixture(scope="module")
def shard_rows():
    rows = run_shard_laws()
    record(
        "ADVISOR-SHARD",
        "sharded-store freshness laws and answer equality by shard count",
        table(rows, SHARD_COLUMNS),
        data=_public(rows),
        meta={"site": f"fuzz:{SITE_SEED}", "workers": WORKERS},
    )
    return rows


class TestAdvisor:
    def test_advisor_beats_all_and_none(self, advisor_rows):
        check_advisor_rows(advisor_rows)

    def test_advisor_respects_budget(self, advisor_rows):
        by_policy = {row["policy"]: row for row in advisor_rows}
        assert by_policy["advisor"]["stored pages"] <= PAGE_BUDGET

    def test_refresh_only_pays_for_retained_pages(self, advisor_rows):
        by_policy = {row["policy"]: row for row in advisor_rows}
        advisor = by_policy["advisor"]
        full = by_policy["all"]
        assert advisor["stored pages"] < full["stored pages"]
        assert advisor["refresh downloads"] <= full["refresh downloads"]


class TestShardLaws:
    def test_freshness_laws_and_digests(self, shard_rows):
        check_shard_rows(shard_rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="fewer rounds (CI smoke run)"
    )
    args = parser.parse_args(argv)
    rounds = QUICK_ROUNDS if args.quick else FULL_ROUNDS

    rows = run_advisor_comparison(rounds)
    record(
        "ADVISOR",
        "materialization policies under an update-heavy workload"
        + (" (quick)" if args.quick else ""),
        table(rows, COLUMNS),
        data=rows,
        meta={
            "site": f"fuzz:{SITE_SEED}",
            "mutation_rate": MUTATION_RATE,
            "page_budget": PAGE_BUDGET,
            "light_weight": LIGHT_WEIGHT,
        },
    )
    check_advisor_rows(rows)

    shard_rows_ = run_shard_laws()
    record(
        "ADVISOR-SHARD",
        "sharded-store freshness laws and answer equality by shard count",
        table(shard_rows_, SHARD_COLUMNS),
        data=_public(shard_rows_),
        meta={"site": f"fuzz:{SITE_SEED}", "workers": WORKERS},
    )
    check_shard_rows(shard_rows_)
    print("smoke checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
