"""The multi-query server: admission, fairness, and shared-work accounting.

The answer contract is absolute: a query served concurrently, with its
navigation prefixes fetched by the shared navigator instead of itself,
must produce the *same relation* as a solo run — and the attribution law
``own pages + pages_shared == solo pages`` (cache-cold) must recompose
the solo footprint exactly.  Staged and pipelined requests share; an
adaptive request runs unshared and costs exactly what it costs solo,
switches and prunes included.  Scheduling is pinned too: with one worker
the service order IS the round-robin interleaving across tenants.
"""

from __future__ import annotations

import pytest

from repro.errors import AdmissionRejected, OptionsError
from repro.obs.metrics import METRICS
from repro.options import QueryOptions, QueryRequest
from repro.qa.cli import MOVIE_QUERIES, UNIVERSITY_QUERIES
from repro.qa.oracle import counted_wraps
from repro.server import (
    QueryServer,
    ServerConfig,
    SharedNavigator,
    execute_shared,
    navigation_prefixes,
)
from repro.sites import fuzzed, movies, university
from tests.adaptive_golden import SKEW_SQL, _skew_a, _skew_b, record
from tests.test_adaptive import plain_candidate

pytestmark = pytest.mark.usefixtures("isolated_metrics")

SQL = "SELECT PName, Rank FROM Professor WHERE Rank = 'Full'"

COLD = QueryOptions(cache="off")

#: The acceptance floor: this many concurrent mixed queries per fuzzed
#: site must each reproduce their solo-run answer.
CONCURRENT_N = 10
FUZZ_SEEDS = (17, 42)

#: The execution modes whose requests subscribe to navigation prefixes.
SHARING_MODES = ("staged", "pipelined")

ADAPTIVE = QueryOptions(execution="adaptive", cache="off")


def mixed_requests(env, n: int) -> list[QueryRequest]:
    """A deterministic mixed workload: cycle the site's query suite
    across two tenants (adjacent requests repeat prefixes, so sharing
    always has something to share)."""
    names = sorted(env.site.queries())
    queries = env.site.queries()
    return [
        QueryRequest(
            query=queries[names[index % len(names)]],
            options=COLD,
            tenant=f"tenant-{index % 2}",
        )
        for index in range(n)
    ]


def solo_runs(env, requests) -> list:
    """Each request executed alone (no server, no sharing)."""
    results = []
    for request in requests:
        plan = env.plan(request.query, cache="off").best.expr
        results.append(env.execute(plan, options=request.options))
    return results


def run_shared(env, plan, options, path):
    """One plan through the request core, by ``path`` (a one-worker
    ``QueryServer`` or ``execute_shared``), each with a fresh navigator:
    ``(result, signatures, navigator log)``."""
    if path == "execute_shared":
        shared = execute_shared(env, plan, options=options)
        return shared.result, shared.signatures, shared.navigator_log
    server = QueryServer(env, ServerConfig(max_workers=1))
    try:
        request = QueryRequest(plan=plan, options=options)
        outcome = server.submit(request).outcome(timeout=120)
    finally:
        server.close()
    assert outcome.ok, outcome.error
    return outcome.result, outcome.signatures, server.navigator.log


class TestConfig:
    def test_bad_workers_raises(self):
        with pytest.raises(OptionsError):
            ServerConfig(max_workers=0)

    def test_bad_queue_raises(self):
        with pytest.raises(OptionsError):
            ServerConfig(max_queue=0)

    def test_bad_default_options_raises(self):
        with pytest.raises(OptionsError):
            ServerConfig(default_options={"cache": "off"})

    @pytest.mark.parametrize("value", [1.5, True, "2", None, -1])
    @pytest.mark.parametrize("field", ["max_workers", "max_queue"])
    def test_sizes_must_be_positive_ints(self, field, value):
        """Checked at construction: no server (and no thread) is made."""
        with pytest.raises(OptionsError, match=field):
            ServerConfig(**{field: value})


class TestAdmission:
    def test_queue_bound_rejects_and_counts(self, uni_env):
        rejected = METRICS.counter("repro_server_admissions_total")
        before = rejected.value(tenant="adm-test", outcome="rejected")
        server = QueryServer(
            uni_env,
            ServerConfig(max_workers=1, max_queue=2),
            start=False,
        )
        request = QueryRequest(query=SQL, options=COLD, tenant="adm-test")
        tickets = [server.submit(request), server.submit(request)]
        with pytest.raises(AdmissionRejected):
            server.submit(request)
        assert (
            rejected.value(tenant="adm-test", outcome="rejected")
            == before + 1
        )
        # the admitted backlog still drains correctly after the refusal
        server.start()
        for ticket in tickets:
            result = ticket.result(timeout=60)
            assert result.pages + result.log.pages_shared > 0
        server.close()

    def test_closed_server_refuses(self, uni_env):
        server = QueryServer(uni_env, ServerConfig(max_workers=1))
        server.close()
        with pytest.raises(AdmissionRejected):
            server.submit(QueryRequest(query=SQL, options=COLD))

    def test_submit_type_checked(self, uni_env):
        with QueryServer(uni_env, ServerConfig(max_workers=1)) as server:
            with pytest.raises(OptionsError):
                server.submit(SQL)

    def test_oversized_cohort_refused_before_any_work(self, uni_env):
        server = QueryServer(
            uni_env, ServerConfig(max_workers=1, max_queue=2), start=False
        )
        requests = [
            QueryRequest(query=SQL, options=COLD) for _ in range(3)
        ]
        with pytest.raises(AdmissionRejected):
            server.serve(requests)
        server.close()


class TestFairness:
    def test_single_worker_serves_round_robin(self, uni_env):
        """Stage a backlog of 3 alice + 2 bob requests, then start one
        worker: the dequeue sequence must alternate tenants in
        first-submission order, not drain alice first."""
        server = QueryServer(
            uni_env, ServerConfig(max_workers=1, max_queue=8), start=False
        )
        tickets = []
        for tenant in ["alice", "alice", "alice", "bob", "bob"]:
            tickets.append(
                server.submit(
                    QueryRequest(query=SQL, options=COLD, tenant=tenant)
                )
            )
        server.start()
        outcomes = [ticket.outcome(timeout=120) for ticket in tickets]
        server.close()
        assert all(o.ok for o in outcomes)
        served = sorted(outcomes, key=lambda o: o.sequence)
        assert [o.sequence for o in served] == [0, 1, 2, 3, 4]
        assert [o.tenant for o in served] == [
            "alice", "bob", "alice", "bob", "alice",
        ]


class TestSharedExecution:
    """The serial sharing core (what the QA oracle's server dimension
    drives), checked directly for exact attribution."""

    def test_attribution_recomposes_solo_footprint(self):
        env = fuzzed(FUZZ_SEEDS[0])
        for request in mixed_requests(env, 4):
            plan = env.plan(request.query, cache="off").best.expr
            solo = env.execute(plan, options=COLD)
            shared = execute_shared(env, plan, options=COLD)
            assert shared.result.fingerprint() == solo.fingerprint()
            # fresh navigator, cold cache: the navigator downloaded
            # exactly the handed-off pages, the query the rest
            assert shared.pages_shared == shared.navigator_log.page_downloads
            assert (
                shared.result.pages + shared.pages_shared == solo.pages
            )
            assert shared.combined_log.page_downloads == solo.pages

    def test_hot_prefix_is_not_refetched(self):
        env = fuzzed(FUZZ_SEEDS[0])
        request = mixed_requests(env, 1)[0]
        plan = env.plan(request.query, cache="off").best.expr
        navigator = SharedNavigator(env.scheme, env.client, env.registry)
        first = execute_shared(env, plan, options=COLD, navigator=navigator)
        assert first.signatures  # the plan has a shareable prefix
        downloads_after_first = navigator.log.page_downloads
        second = execute_shared(env, plan, options=COLD, navigator=navigator)
        assert second.result.fingerprint() == first.result.fingerprint()
        # the repeat is a pure hit: no new navigator fetches, same hand-off
        assert navigator.log.page_downloads == downloads_after_first
        assert second.pages_shared == first.pages_shared
        assert second.navigator_log.page_downloads == 0

    def test_a_shared_page_is_parsed_by_the_navigator_only(self):
        """The hand-off carries the navigator's tuples: a subscriber parses
        its own pages and none of the shared ones, led or hot."""
        env = fuzzed(FUZZ_SEEDS[0])
        request = mixed_requests(env, 1)[0]
        plan = env.plan(request.query, cache="off").best.expr
        solo = env.execute(plan, options=COLD)
        navigator = SharedNavigator(env.scheme, env.client, env.registry)
        for lead in (True, False):
            with counted_wraps(env.registry) as wraps:
                shared = execute_shared(
                    env, plan, options=COLD, navigator=navigator
                )
            assert shared.pages_shared > 0
            assert shared.result.pages + shared.pages_shared == solo.pages
            assert shared.result.fingerprint() == solo.fingerprint()
            parsed = sorted(url for _, url in wraps)
            own = sorted(shared.result.log.downloaded_urls)
            led = sorted(shared.navigator_log.downloaded_urls)
            assert parsed == sorted(own + led)
            assert bool(led) == lead
        server = env.site.server
        assert all(server.resource(url).tuples is None for url in server.urls())

    def test_plan_prefixes_cover_every_entry_leaf(self, uni_env):
        plan = uni_env.plan(SQL).best.expr
        prefixes = navigation_prefixes(plan)
        assert prefixes
        for signature, chain in prefixes:
            assert signature.steps[0].startswith("entry:")
            assert signature.depth >= 1
            assert navigation_prefixes(chain) == [(signature, chain)]


@pytest.mark.parametrize("path", ["server", "execute_shared"])
@pytest.mark.parametrize("execution", SHARING_MODES)
class TestSharingLaws:
    """A staged or pipelined request shares, through the worker path
    and through ``execute_shared`` alike, and keeps the attribution law
    and the one-parse rule."""

    def test_attribution_recomposes_solo_footprint(self, execution, path):
        env = fuzzed(FUZZ_SEEDS[0])
        options = QueryOptions(cache="off", execution=execution)
        for request in mixed_requests(env, 4):
            plan = env.plan(request.query, cache="off").best.expr
            solo = env.execute(plan, options=options)
            result, signatures, navigator_log = run_shared(
                env, plan, options, path
            )
            assert signatures
            assert result.fingerprint() == solo.fingerprint()
            assert result.log.pages_shared == navigator_log.page_downloads > 0
            assert result.pages + result.log.pages_shared == solo.pages

    def test_a_shared_page_is_parsed_by_the_navigator_only(
        self, execution, path
    ):
        env = fuzzed(FUZZ_SEEDS[0])
        options = QueryOptions(cache="off", execution=execution)
        plan = env.plan(mixed_requests(env, 1)[0].query, cache="off").best.expr
        with counted_wraps(env.registry) as wraps:
            result, _, navigator_log = run_shared(env, plan, options, path)
        own = result.log.downloaded_urls
        led = navigator_log.downloaded_urls
        assert led
        assert sorted(url for _, url in wraps) == sorted(own + led)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
class TestConcurrentDigests:
    """N concurrent mixed queries answer exactly as they would solo."""

    def test_submit_path(self, seed):
        env = fuzzed(seed)
        requests = mixed_requests(env, CONCURRENT_N)
        solo = solo_runs(env, requests)
        queries_total = METRICS.counter("repro_server_queries_total")
        server = QueryServer(
            env, ServerConfig(max_workers=4, max_queue=len(requests))
        )
        try:
            with counted_wraps(env.registry) as wraps:
                tickets = [server.submit(request) for request in requests]
                outcomes = [ticket.outcome(timeout=300) for ticket in tickets]
        finally:
            server.close()
        assert all(o.ok for o in outcomes)
        # every page is parsed by whoever downloaded it, shared pages by
        # the navigator alone — not once more per subscriber
        assert len(wraps) == server.navigator.log.page_downloads + sum(
            o.result.pages for o in outcomes
        )
        for outcome, reference in zip(outcomes, solo):
            assert (
                outcome.result.fingerprint() == reference.fingerprint()
            ), f"{outcome.request.query!r} diverged under sharing"
            # cache-cold attribution: the pages the query did not fetch
            # itself were exactly the shared hand-off
            assert (
                outcome.result.pages + outcome.pages_shared
                == reference.pages
            )
            assert outcome.signatures, "no prefix was shared"
        # the mix repeats queries, so some resolutions must have been hits
        subscriptions = sum(len(o.signatures) for o in outcomes)
        assert subscriptions > len(server.navigator.resolved_signatures)
        for tenant in ("tenant-0", "tenant-1"):
            assert queries_total.value(tenant=tenant, outcome="ok") > 0

    def test_cohort_path_is_deterministic(self, seed):
        env = fuzzed(seed)
        requests = mixed_requests(env, CONCURRENT_N)
        solo = solo_runs(env, requests)

        def run_cohort():
            server = QueryServer(
                env, ServerConfig(max_workers=4, max_queue=len(requests))
            )
            try:
                outcomes = server.serve(requests)
            finally:
                server.close()
            navigator_pages = server.navigator.log.page_downloads
            return outcomes, navigator_pages

        outcomes, navigator_pages = run_cohort()
        assert all(o.ok for o in outcomes)
        # outcomes come back in submission order
        assert [o.request for o in outcomes] == requests
        for outcome, reference in zip(outcomes, solo):
            assert outcome.result.fingerprint() == reference.fingerprint()
            assert (
                outcome.result.pages + outcome.pages_shared
                == reference.pages
            )
        # bit-for-bit reproducible accounting, run to run
        again, navigator_pages_again = run_cohort()
        assert navigator_pages_again == navigator_pages
        assert [o.result.pages for o in again] == [
            o.result.pages for o in outcomes
        ]
        assert [o.pages_shared for o in again] == [
            o.pages_shared for o in outcomes
        ]


class TestSharingDisabled:
    def test_adaptive_request_matches_solo_accounting(self, uni_env):
        """An adaptive request subscribes to no prefix: its executor may
        prune or switch away pages a prefix would hand it."""
        request = QueryRequest(query=SQL, options=ADAPTIVE)
        plan = uni_env.plan(SQL, cache="off").best.expr
        solo = uni_env.execute(plan, options=ADAPTIVE)
        server = QueryServer(uni_env, ServerConfig(max_workers=2))
        try:
            outcome = server.submit(request).outcome(timeout=120)
        finally:
            server.close()
        assert outcome.ok
        assert outcome.result.fingerprint() == solo.fingerprint()
        assert outcome.signatures == ()
        assert outcome.pages_shared == 0
        assert outcome.result.pages == solo.pages
        assert server.navigator.log.page_downloads == 0


def adaptive_footprint(result) -> tuple:
    """What an adaptive run must reproduce: answer, light connections,
    and the adaptive golden's record (pages, prunes, switches with their
    re-planned suffixes, pruned URLs)."""
    return result.fingerprint(), result.log.light_connections, record(result)


#: Each site's query suite and how many of its candidate plans (the
#: first 12 per query) the adaptive test runs: 92 over the four QA sites,
#: plus the two skewed fuzz-42 sites, where switches fire and rule 8
#: re-plans through the planner.
SUITES = {
    "university": (university, UNIVERSITY_QUERIES, 28),
    "movies": (movies, MOVIE_QUERIES, 22),
    "fuzzed-3": (lambda: fuzzed(3), None, 18),
    "fuzzed-17": (lambda: fuzzed(17), None, 24),
    "skew-a": (_skew_a, {"beta_gamma": SKEW_SQL}, 6),
    "skew-b": (_skew_b, {"beta_gamma": SKEW_SQL}, 6),
}


@pytest.mark.parametrize("site_name", sorted(SUITES))
def test_adaptive_requests_cost_what_they_cost_solo(site_name):
    """Every candidate plan run adaptively through a default-config
    server (four workers, so re-planning runs concurrently, outside the
    plan lock) and through ``execute_shared`` reproduces the solo run:
    same answer, pages, light connections, switches and prunes, and no
    page shared."""
    make, queries, count = SUITES[site_name]
    env = make()
    suite = queries or env.site.queries()
    plans = [
        candidate.expr
        for sql in suite.values()
        for candidate in env.enumerate_plans(sql, cache="off", limit=12)
    ]
    assert len(plans) == count
    solo = [adaptive_footprint(env.execute(p, options=ADAPTIVE)) for p in plans]
    with QueryServer(env) as server:
        tickets = [
            server.submit(QueryRequest(plan=plan, options=ADAPTIVE))
            for plan in plans
        ]
        outcomes = [ticket.outcome(timeout=300) for ticket in tickets]
    assert server.navigator.log.page_downloads == 0
    for index, (plan, outcome) in enumerate(zip(plans, outcomes)):
        assert outcome.ok, outcome.error
        assert adaptive_footprint(outcome.result) == solo[index], index
        assert outcome.signatures == ()
        assert outcome.pages_shared == 0
        shared = execute_shared(env, plan, options=ADAPTIVE)
        assert adaptive_footprint(shared.result) == solo[index], index
        assert shared.signatures == ()
        assert shared.pages_shared == 0
        assert shared.navigator_log.page_downloads == 0


def test_an_adaptive_request_prices_with_the_refreshed_statistics():
    """The server reads the planner and cost model on each request: after
    ``refresh_statistics`` the skewed site's adaptive request switches as
    a solo run over the refreshed model does, not as the stale one did."""
    env = _skew_b()
    _, candidate = plain_candidate(env.plan(SKEW_SQL))
    request = QueryRequest(plan=candidate.expr, options=ADAPTIVE)
    with QueryServer(env, ServerConfig(max_workers=1)) as server:
        stale = env.execute(candidate.expr, options=ADAPTIVE)
        env.refresh_statistics()
        solo = env.execute(candidate.expr, options=ADAPTIVE)
        outcome = server.submit(request).outcome(timeout=120)
    assert adaptive_footprint(solo) != adaptive_footprint(stale)
    assert adaptive_footprint(outcome.result) == adaptive_footprint(solo)
