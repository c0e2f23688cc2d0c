"""Tests for the concurrent batched fetch engine: worker pools, retry and
backoff under injected faults, deterministic accounting, and the shared
cost-summary shape."""

import pytest

from repro.errors import (
    FetchError,
    ResourceNotFound,
    RetriesExhaustedError,
    TransientFetchError,
)
from repro.options import QueryOptions
from repro.sitegen import UniversityConfig
from repro.sites import bibliography, movies, university
from repro.web import (
    FaultPolicy,
    FetchConfig,
    NetworkModel,
    RetryPolicy,
    SimulatedWebServer,
    WebClient,
)
from repro.engine.session import QuerySession


def make_server(n_pages=8, fault_policy=None):
    server = SimulatedWebServer(fault_policy=fault_policy)
    urls = []
    for i in range(n_pages):
        url = f"http://x/p{i}.html"
        server.publish(url, "x" * (100 * (i + 1)))
        urls.append(url)
    return server, urls


#: A policy that fails every attempt (hash draw always below rate 0.999...
#: is not guaranteed, so use rate ~1 via the largest allowed value).
ALWAYS_FAIL = 0.999999999


class TestFaultPolicy:
    def test_deterministic_per_url_and_attempt(self):
        a = FaultPolicy(failure_rate=0.5, seed=42)
        b = FaultPolicy(failure_rate=0.5, seed=42)
        url = "http://x/p.html"
        outcomes_a = []
        outcomes_b = []
        for _ in range(20):
            try:
                a.check(url)
                outcomes_a.append("ok")
            except TransientFetchError as err:
                outcomes_a.append(err.kind)
            try:
                b.check(url)
                outcomes_b.append("ok")
            except TransientFetchError as err:
                outcomes_b.append(err.kind)
        assert outcomes_a == outcomes_b
        assert set(outcomes_a) & {"timeout", "server_error"}

    def test_seed_changes_the_stream(self):
        def stream(seed):
            policy = FaultPolicy(failure_rate=0.5, seed=seed)
            out = []
            for _ in range(30):
                try:
                    policy.check("http://x/p.html")
                    out.append(True)
                except TransientFetchError:
                    out.append(False)
            return out

        assert stream(1) != stream(2)

    def test_reset_restarts_the_stream(self):
        policy = FaultPolicy(failure_rate=0.5, seed=3)

        def run():
            out = []
            for _ in range(10):
                try:
                    policy.check("http://x/p.html")
                    out.append(True)
                except TransientFetchError:
                    out.append(False)
            return out

        first = run()
        policy.reset()
        assert run() == first

    def test_rejects_bad_parameters(self):
        from repro.errors import WebError

        with pytest.raises(WebError):
            FaultPolicy(failure_rate=1.5)
        with pytest.raises(WebError):
            FaultPolicy(kinds=())


class TestRetries:
    def test_retry_succeeds_within_budget(self):
        """(a) transient failures are retried; attempts and failed
        requests are both counted."""
        server, urls = make_server(n_pages=1)
        server.fault_policy = FaultPolicy(failure_rate=0.5, seed=11)
        client = WebClient(
            server, retry_policy=RetryPolicy(max_attempts=50)
        )
        resource = client.get(urls[0])
        assert resource is not None
        assert client.log.page_downloads == 1
        # deterministic: seed 11 fails at least once on this URL
        assert client.log.failed_requests >= 1
        assert client.log.attempts == client.log.failed_requests + 1

    def test_backoff_adds_simulated_time(self):
        server, urls = make_server(n_pages=1)
        server.fault_policy = FaultPolicy(failure_rate=ALWAYS_FAIL, seed=0)
        network = NetworkModel(rtt_seconds=0.25, bytes_per_second=1000)
        client = WebClient(
            server,
            network,
            retry_policy=RetryPolicy(
                max_attempts=3, backoff_seconds=1.0, backoff_factor=2.0
            ),
        )
        with pytest.raises(RetriesExhaustedError):
            client.get(urls[0])
        # 3 wasted round trips + backoffs of 1.0 and 2.0 simulated seconds
        assert client.log.simulated_seconds == pytest.approx(
            3 * 0.25 + 1.0 + 2.0
        )

    def test_exhausted_retries_raise_typed_fetch_error(self):
        """(b) a fetch that never succeeds surfaces RetriesExhaustedError,
        a FetchError, with the attempt count and last cause attached."""
        server, urls = make_server(n_pages=1)
        server.fault_policy = FaultPolicy(failure_rate=ALWAYS_FAIL, seed=1)
        client = WebClient(server, retry_policy=RetryPolicy(max_attempts=3))
        with pytest.raises(FetchError) as excinfo:
            client.get(urls[0])
        err = excinfo.value
        assert isinstance(err, RetriesExhaustedError)
        assert err.attempts == 3
        assert isinstance(err.last, TransientFetchError)
        assert client.log.failed_requests == 3
        assert client.log.page_downloads == 0

    def test_missing_pages_are_not_retried(self):
        server, _ = make_server()
        client = WebClient(server, retry_policy=RetryPolicy(max_attempts=5))
        with pytest.raises(ResourceNotFound):
            client.get("http://x/nope.html")
        assert client.log.attempts == 1
        assert client.log.failed_requests == 1

    def test_exhaustion_propagates_from_batch(self):
        server, urls = make_server(n_pages=4)
        server.fault_policy = FaultPolicy(failure_rate=ALWAYS_FAIL, seed=2)
        client = WebClient(server, retry_policy=RetryPolicy(max_attempts=2))
        with pytest.raises(RetriesExhaustedError):
            client.get_batch(urls, config=FetchConfig(max_workers=4))
        # the whole batch was still accounted before raising
        assert client.log.attempts == 2 * len(urls)


class TestBatchFetch:
    def test_batch_returns_all_resources(self):
        server, urls = make_server(n_pages=6)
        client = WebClient(server)
        result = client.get_batch(urls, config=FetchConfig(max_workers=3))
        assert set(result) == set(urls)
        assert all(result[u] is not None for u in urls)
        assert client.log.page_downloads == 6

    def test_duplicate_urls_fetched_once(self):
        server, urls = make_server(n_pages=2)
        client = WebClient(server)
        batch = [urls[0], urls[1], urls[0], urls[1], urls[0]]
        client.get_batch(batch, config=FetchConfig(max_workers=4))
        assert client.log.page_downloads == 2

    def test_missing_urls_map_to_none(self):
        server, urls = make_server(n_pages=2)
        client = WebClient(server)
        result = client.get_batch(
            urls + ["http://x/gone.html"], config=FetchConfig(max_workers=2)
        )
        assert result["http://x/gone.html"] is None
        assert client.log.failed_requests == 1
        assert client.log.page_downloads == 2

    def test_accounting_order_is_submission_order(self):
        """Worker interleaving must not leak into the log."""
        server, urls = make_server(n_pages=8)
        client = WebClient(server)
        client.get_batch(urls, config=FetchConfig(max_workers=8))
        assert client.log.downloaded_urls == urls
        assert [r.url for r in client.log.records] == urls

    def test_parallel_batch_is_faster_but_counts_the_same(self):
        times = {}
        pages = {}
        for workers in [1, 2, 4]:
            server, urls = make_server(n_pages=8)
            client = WebClient(server)
            client.get_batch(urls, config=FetchConfig(max_workers=workers))
            times[workers] = client.log.simulated_seconds
            pages[workers] = client.log.page_downloads
        assert times[1] > times[2] > times[4]
        assert pages[1] == pages[2] == pages[4] == 8

    def test_serial_batch_matches_sequential_gets_bit_for_bit(self):
        server, urls = make_server(n_pages=5)
        serial = WebClient(server)
        for url in urls:
            serial.get(url)
        batched = WebClient(server)
        batched.get_batch(urls, config=FetchConfig(max_workers=1))
        assert (
            batched.log.simulated_seconds == serial.log.simulated_seconds
        )

    def test_fetch_config_defers_to_network_model(self):
        network = NetworkModel(parallel_connections=4)
        assert FetchConfig().effective_workers(network) == 4
        assert FetchConfig(max_workers=2).effective_workers(network) == 2
        with pytest.raises(ValueError):
            FetchConfig(max_workers=0)

    def test_batch_seconds_overlaps_round_trips(self):
        serial = NetworkModel()
        parallel = NetworkModel(parallel_connections=4)
        durations = [1.0] * 8
        assert serial.batch_seconds(durations) == pytest.approx(8.0)
        assert parallel.batch_seconds(durations) == pytest.approx(2.0)
        assert parallel.batch_seconds(durations, connections=8) == (
            pytest.approx(1.0)
        )


class TestSessionBatch:
    def test_session_never_double_counts_duplicates(self, uni_env):
        """(c) duplicate URLs — within a batch and across batches of one
        session — cost one download each, at any concurrency level."""
        client = WebClient(uni_env.site.server)
        session = QuerySession(
            client, uni_env.registry, fetch_config=FetchConfig(max_workers=8)
        )
        urls = [p.url for p in uni_env.site.profs[:6]]
        session.fetch_batch(urls + urls)           # duplicates in one batch
        session.fetch_batch(urls)                  # repeated batch
        session.fetch_tuples("ProfPage", urls)     # and through wrapping
        assert client.log.page_downloads == len(urls)
        assert session.pages_downloaded == len(urls)

    def test_fetch_tuples_matches_fetch_tuple(self, uni_env):
        urls = [p.url for p in uni_env.site.profs[:5]]
        batch_client = WebClient(uni_env.site.server)
        batch_session = QuerySession(
            batch_client,
            uni_env.registry,
            fetch_config=FetchConfig(max_workers=4),
        )
        batched = batch_session.fetch_tuples("ProfPage", urls)
        serial_client = WebClient(uni_env.site.server)
        serial_session = QuerySession(serial_client, uni_env.registry)
        for url in urls:
            assert batched[url] == serial_session.fetch_tuple("ProfPage", url)
        assert batch_client.log.page_downloads == len(urls)

    def test_batch_tolerates_dangling_links(self, small_env):
        site = small_env.site
        victim = site.profs[0]
        site.server.delete(victim.url)
        client = WebClient(site.server)
        session = QuerySession(
            client, small_env.registry, fetch_config=FetchConfig(max_workers=4)
        )
        tuples = session.fetch_tuples(
            "ProfPage", [p.url for p in site.profs]
        )
        assert victim.url not in tuples
        assert len(tuples) == len(site.profs) - 1


class TestProviderShim:
    def test_remote_provider_exposes_batch_entry_points(self, uni_env):
        from repro.engine.remote import _SessionProvider

        client = WebClient(uni_env.site.server)
        session = QuerySession(client, uni_env.registry)
        provider = _SessionProvider(uni_env.scheme, session)
        tuples = provider.entry_tuples(["ProfListPage", "DeptListPage"])
        assert set(tuples) == {"ProfListPage", "DeptListPage"}
        assert client.log.page_downloads == 2


class TestQueryOptions:
    def test_query_accepts_keyword_only_options(self, uni_env):
        serial = uni_env.query("SELECT DName FROM Dept")
        parallel = uni_env.query(
            "SELECT DName FROM Dept",
            options=QueryOptions(
                fetch=FetchConfig(max_workers=4),
                retry=RetryPolicy(max_attempts=2),
            ),
        )
        assert parallel.relation.same_contents(serial.relation)
        assert parallel.pages == serial.pages

    def test_options_are_keyword_only(self, uni_env):
        with pytest.raises(TypeError):
            uni_env.query("SELECT DName FROM Dept", QueryOptions())

    def test_parallel_query_counts_pages_like_serial(self, uni_env):
        sql = (
            "SELECT Professor.PName, email FROM Professor, ProfDept "
            "WHERE Professor.PName = ProfDept.PName "
            "AND ProfDept.DName = 'Computer Science'"
        )
        serial = uni_env.query(sql)
        parallel = uni_env.query(
            sql, options=QueryOptions(fetch=FetchConfig(max_workers=8))
        )
        assert parallel.pages == serial.pages
        assert parallel.relation.same_contents(serial.relation)
        assert (
            parallel.log.simulated_seconds < serial.log.simulated_seconds
        )


class TestFaultToleranceEndToEnd:
    QUERIES = {
        "university": "SELECT PName, Rank FROM Professor",
        "bibliography": (
            "SELECT Title, AName FROM PaperAuthor WHERE ConfName = 'VLDB'"
        ),
        "movies": "SELECT Title, DName FROM MovieDirector",
    }

    @pytest.mark.parametrize("site_name", sorted(QUERIES))
    def test_faulty_run_returns_the_no_fault_relation(self, site_name):
        """10% transient failures + default retries: same answer, extra
        attempts, identical page counts."""
        build = {
            "university": university,
            "bibliography": bibliography,
            "movies": movies,
        }[site_name]
        sql = self.QUERIES[site_name]
        clean_env = build()
        clean = clean_env.query(sql)
        faulty_env = build()
        faulty_env.site.server.fault_policy = FaultPolicy(
            failure_rate=0.10, seed=1998
        )
        faulty = faulty_env.query(
            sql, options=QueryOptions(fetch=FetchConfig(max_workers=8))
        )
        assert faulty.relation.same_contents(clean.relation)
        assert faulty.pages == clean.pages
        assert faulty.log.attempts >= clean.log.attempts
        assert faulty.log.simulated_seconds > 0

    def test_faulty_run_records_failures(self):
        env = university(UniversityConfig())
        env.site.server.fault_policy = FaultPolicy(
            failure_rate=0.25, seed=5
        )
        result = env.query(
            "SELECT PName, Rank FROM Professor",
            options=QueryOptions(fetch=FetchConfig(max_workers=4)),
        )
        assert result.log.failed_requests > 0
        assert result.log.attempts == (
            result.log.page_downloads + result.log.failed_requests
        )


class TestCostSummary:
    def test_execution_and_planner_share_the_shape(self, uni_env):
        sql = "SELECT DName FROM Dept"
        planned = uni_env.plan(sql)
        executed = uni_env.query(sql)
        assert type(planned.cost) is type(executed.cost)
        assert planned.cost.pages == executed.cost.pages == 1
        assert executed.cost.simulated_seconds > 0
        assert executed.cost.attempts >= executed.cost.pages

    def test_materialized_result_shares_the_shape(self, small_env):
        from repro.materialized import MaterializedEngine, MaterializedStore

        store = MaterializedStore(
            small_env.scheme,
            WebClient(small_env.site.server),
            small_env.registry,
        )
        store.populate()
        store.client.log.reset()
        engine = MaterializedEngine(store, small_env.planner)
        result = engine.query(small_env.sql("SELECT DName FROM Dept"))
        executed = small_env.query("SELECT DName FROM Dept")
        assert type(result.cost) is type(executed.cost)
        assert result.cost.light_connections > 0

    def test_log_delta_tracks_new_fields(self):
        server, urls = make_server(n_pages=3)
        client = WebClient(server)
        snap = client.log.snapshot()
        client.get_batch(urls, config=FetchConfig(max_workers=2))
        delta = client.log.delta(snap)
        assert delta.attempts == 3
        assert len(delta.records) == 3
        assert snap.attempts == 0
