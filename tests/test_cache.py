"""Tests for the cross-query page cache: LRU behaviour, cache policies,
single-flight deduplication, client accounting, cache-aware costing, the
off-policy bit-for-bit guarantee, and the wrapped tuples a cache entry
owns."""

import copy
import random
import sys
import threading
import time

import pytest

from repro.engine.pipeline import EXECUTION_MODES
from repro.engine.remote import RemoteExecutor
from repro.engine.session import QuerySession
from repro.errors import OptimizerError, WebError, WrapperError
from repro.nested.relation import relation_digest
from repro.obs.metrics import METRICS
from repro.options import QueryOptions
from repro.qa.oracle import counted_wraps
from repro.sitegen import SiteMutator, UniversityConfig
from repro.sites import bibliography, movies, university
from repro.web import (
    NO_CACHE,
    CachePolicy,
    FetchConfig,
    PageCache,
    SimulatedWebServer,
    SingleFlight,
    WebClient,
    WebResource,
)
from repro.optimizer.cost import CacheEstimate


def make_server(n_pages=8):
    server = SimulatedWebServer()
    urls = []
    for i in range(n_pages):
        url = f"http://x/p{i}.html"
        server.publish(url, "x" * (100 * (i + 1)))
        urls.append(url)
    return server, urls


# --------------------------------------------------------------------- #
# the cache data structure
# --------------------------------------------------------------------- #


class TestPageCacheBasics:
    @pytest.mark.parametrize("bad", [0, -1, True, False, "16", 2.5, None])
    def test_capacity_must_be_a_positive_integer(self, bad):
        with pytest.raises(WebError, match="capacity"):
            PageCache(capacity=bad)

    @pytest.mark.parametrize("bad", [0, -3, True, 2.5, "4", None])
    def test_enable_cache_shards_must_be_a_positive_integer(self, bad):
        env = university(UniversityConfig(n_depts=1, n_profs=2, n_courses=2))
        with pytest.raises(WebError, match="shards"):
            env.enable_cache(shards=bad)
        assert env.page_cache is None

    def test_policy_accepts_strings(self):
        assert PageCache(policy="per_query").policy is CachePolicy.PER_QUERY

    def test_unknown_policy_rejected_with_the_valid_names(self):
        with pytest.raises(WebError, match="off, per_query, cross_query"):
            PageCache(policy="write_back")

    def test_lru_eviction_order(self):
        server, urls = make_server(3)
        cache = PageCache(capacity=2)
        for url in urls:
            cache.store(server.resource(url))
        assert urls[0] not in cache
        assert urls[1] in cache and urls[2] in cache
        assert cache.stats.evictions == 1

    def test_lookup_bumps_recency(self):
        server, urls = make_server(3)
        cache = PageCache(capacity=2)
        cache.store(server.resource(urls[0]))
        cache.store(server.resource(urls[1]))
        cache.lookup(urls[0])  # now urls[1] is least recently used
        cache.store(server.resource(urls[2]))
        assert urls[0] in cache and urls[1] not in cache

    def test_entries_are_snapshots_not_aliases(self):
        server, urls = make_server(1)
        cache = PageCache()
        cache.store(server.resource(urls[0]))
        server.update(urls[0], "changed!")
        entry = cache.lookup(urls[0])
        assert entry.html.startswith("x")  # still the version we stored
        copy = entry.as_resource()
        copy.html = "scribbled"
        assert cache.lookup(urls[0]).html.startswith("x")

    def test_begin_query_per_query_drops_entries(self):
        server, urls = make_server(2)
        cache = PageCache(policy=CachePolicy.PER_QUERY)
        for url in urls:
            cache.store(server.resource(url))
        cache.begin_query()
        assert len(cache) == 0

    def test_begin_query_cross_query_only_forgets_validation(self):
        server, urls = make_server(2)
        cache = PageCache(policy=CachePolicy.CROSS_QUERY)
        for url in urls:
            cache.store(server.resource(url))
            cache.mark_validated(url)
        cache.begin_query()
        assert len(cache) == 2
        assert not cache.is_validated(urls[0])

    def test_eviction_discards_validation_mark(self):
        server, urls = make_server(2)
        cache = PageCache(capacity=1)
        cache.store(server.resource(urls[0]))
        cache.mark_validated(urls[0])
        cache.store(server.resource(urls[1]))
        assert not cache.is_validated(urls[0])

    def test_scheme_counts_skip_unknown_schemes(self):
        server, urls = make_server(2)
        cache = PageCache()
        cache.store(server.resource(urls[0]))  # raw pages: no page_scheme
        assert cache.scheme_counts() == {}


def recount(cache):
    """``scheme_counts`` the long way: one lookup per cached URL."""
    counts = {}
    for url in cache.urls():
        scheme = cache.lookup(url).page_scheme
        if scheme:
            counts[scheme] = counts.get(scheme, 0) + 1
    return counts


def scheme_page(index, scheme, version=0):
    return WebResource(
        f"http://x/p{index}.html", f"v{version}", version, scheme
    )


class TestSchemeCounts:
    """The per-page-scheme counts are kept as entries come and go, so they
    must equal a full recount after any sequence of operations."""

    SCHEMES = ["A", "B", "C", ""]

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("policy", ["per_query", "cross_query"])
    def test_counts_equal_a_recount(self, seed, shards, policy):
        rng = random.Random(seed)
        cache = PageCache(capacity=rng.choice([4, 9, 64]), policy=policy,
                          shards=shards)
        for step in range(300):
            op = rng.choice(["store"] * 6 + ["invalidate"] * 2
                            + ["clear", "begin_query", "lookup"])
            index = rng.randrange(24)
            if op == "store":  # a new page, a replacement or an eviction
                cache.store(scheme_page(index, rng.choice(self.SCHEMES), step))
            elif op == "invalidate":
                cache.invalidate(f"http://x/p{index}.html")
            elif op == "lookup":
                cache.lookup_batch([f"http://x/p{i}.html" for i in range(index)])
            elif rng.random() < 0.1:  # rare: they empty the cache
                getattr(cache, op)()
            assert cache.scheme_counts() == recount(cache), (step, op)

    def test_a_replacement_moves_the_page_between_schemes(self):
        cache = PageCache()
        cache.store(scheme_page(0, "A"))
        cache.store(scheme_page(0, "B", 1))
        assert cache.scheme_counts() == {"B": 1}
        cache.invalidate("http://x/p0.html")
        assert cache.scheme_counts() == {}

    def test_concurrent_stores_into_shards(self):
        cache = PageCache(capacity=60, shards=3)

        def worker(offset):
            rng = random.Random(offset)
            for step in range(400):
                index = rng.randrange(120)
                cache.store(scheme_page(index, self.SCHEMES[index % 3], step))
                if step % 7 == 0:
                    cache.invalidate(f"http://x/p{rng.randrange(120)}.html")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.scheme_counts() == recount(cache)
        assert sum(cache.scheme_counts().values()) == len(cache)


class TestLookupBatch:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_answers_and_lru_order_match_single_lookups(self, shards):
        def cache_of():
            cache = PageCache(capacity=64, shards=shards)
            for index in range(10):
                cache.store(scheme_page(index, "A"))
            for index in (1, 4, 7):
                cache.mark_validated(f"http://x/p{index}.html")
            return cache

        urls = [f"http://x/p{i}.html" for i in (7, 12, 3, 1, 9, 0)]
        batched, single = cache_of(), cache_of()
        assert batched.lookup_batch(urls) == [
            (single.lookup(url), single.is_validated(url)) for url in urls
        ]
        assert batched.urls() == single.urls()  # the same LRU bumps


# --------------------------------------------------------------------- #
# single-flight
# --------------------------------------------------------------------- #


class TestSingleFlight:
    def test_concurrent_callers_share_one_call(self):
        flight = SingleFlight()
        calls = []
        entered = threading.Event()
        release = threading.Event()

        def slow():
            calls.append(1)
            entered.set()
            release.wait(timeout=5)
            return "value"

        results = []

        def leader():
            results.append(flight.do("k", slow))

        def follower():
            results.append(flight.do("k", lambda: pytest.fail("ran twice")))

        threads = [threading.Thread(target=leader)]
        threads[0].start()
        assert entered.wait(timeout=5)
        threads += [threading.Thread(target=follower) for _ in range(4)]
        for t in threads[1:]:
            t.start()
        time.sleep(0.05)  # let the followers block on the in-flight call
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert len(calls) == 1
        assert [r[0] for r in results] == ["value"] * 5
        assert sum(1 for r in results if r[1]) == 1  # exactly one leader

    def test_errors_propagate_to_the_caller(self):
        flight = SingleFlight()
        with pytest.raises(ValueError, match="boom"):
            flight.do("k", lambda: (_ for _ in ()).throw(ValueError("boom")))

    def test_later_calls_run_again(self):
        flight = SingleFlight()
        calls = []
        flight.do("k", lambda: calls.append(1))
        flight.do("k", lambda: calls.append(1))
        assert len(calls) == 2

    def test_a_lone_leader_makes_no_event(self):
        flight = SingleFlight()
        seen = []

        def fn():
            seen.append(flight._calls["k"].done)
            return 1

        assert flight.do("k", fn) == (1, True)
        assert seen == [None]

    def test_followers_racing_the_leader_share_its_result(self):
        """The event is made by the first follower under the group's lock;
        with threads switching every microsecond, a follower that arrives
        just before the leader unlists the call must still be woken, and
        one that arrives just after leads a call of its own."""
        rng = random.Random(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            followers = 0
            for _ in range(60):
                flight = SingleFlight()
                start = threading.Barrier(6)
                results = []
                spin = rng.choice([0, 300, 3000, 10000, 30000])

                def fn():
                    token = object()
                    for _ in range(spin):  # followers arrive mid-call
                        pass
                    return token

                def caller():
                    start.wait(timeout=10)
                    results.append(flight.do("k", fn))

                threads = [
                    threading.Thread(target=caller, daemon=True)
                    for _ in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=5)
                assert not any(thread.is_alive() for thread in threads)
                assert len(results) == 6
                led = {id(token) for token, leader in results if leader}
                assert all(id(token) in led for token, _ in results)
                followers += sum(not leader for _, leader in results)
                assert flight._calls == {}
                later = flight.do("k", fn)
                assert later[1] and id(later[0]) not in led
        finally:
            sys.setswitchinterval(interval)
        assert followers > 0


# --------------------------------------------------------------------- #
# client accounting
# --------------------------------------------------------------------- #


class TestClientCaching:
    def test_cross_query_lifecycle(self):
        """download → free hit (same query) → revalidation (next query)."""
        server, urls = make_server(1)
        cache = PageCache()
        client = WebClient(server, cache=cache)
        url = urls[0]

        client.get(url)
        assert client.log.page_downloads == 1
        client.get(url)  # validated this query: free
        assert client.log.page_downloads == 1
        assert client.log.light_connections == 0
        assert client.log.cache_hits == 1

        cache.begin_query()
        client.get(url)  # new query: one light connection, no download
        assert client.log.page_downloads == 1
        assert client.log.light_connections == 1
        assert client.log.revalidations == 1
        assert client.log.pages_saved == 2

    def test_mutation_is_observed_through_revalidation(self):
        server, urls = make_server(1)
        cache = PageCache()
        client = WebClient(server, cache=cache)
        url = urls[0]
        client.get(url)
        server.update(url, "new content")
        cache.begin_query()
        resource = client.get(url)
        assert resource.html == "new content"
        assert client.log.page_downloads == 2  # stale: re-downloaded
        assert client.log.light_connections == 1
        assert cache.stats.invalidations == 1

    def test_deleted_page_drops_out_of_the_cache(self):
        from repro.errors import ResourceNotFound

        server, urls = make_server(1)
        cache = PageCache()
        client = WebClient(server, cache=cache)
        client.get(urls[0])
        server.delete(urls[0])
        cache.begin_query()
        with pytest.raises(ResourceNotFound):
            client.get(urls[0])
        assert urls[0] not in cache

    def test_batch_duplicates_cost_one_download(self):
        server, urls = make_server(4)
        client = WebClient(server, cache=PageCache())
        batch = client.get_batch(
            [urls[0], urls[1], urls[0], urls[2], urls[1]],
            config=FetchConfig(max_workers=4),
        )
        assert sorted(batch) == sorted({urls[0], urls[1], urls[2]})
        assert all(batch[url].url == url for url in batch)
        assert client.log.page_downloads == 3

    def test_warm_batch_is_all_revalidations(self):
        server, urls = make_server(4)
        cache = PageCache()
        client = WebClient(server, cache=cache)
        client.get_batch(urls)
        cache.begin_query()
        before = client.log.snapshot()
        client.get_batch(urls, config=FetchConfig(max_workers=4))
        delta = client.log.delta(before)
        assert delta.page_downloads == 0
        assert delta.light_connections == len(urls)
        assert delta.pages_saved == len(urls)

    @pytest.mark.usefixtures("isolated_metrics")
    def test_cache_events_count_pages_not_batches(self):
        server, urls = make_server(4)
        cache = PageCache()
        client = WebClient(server, cache=cache)
        client.get_batch(urls)  # four misses
        client.get(urls[0])  # a hit
        server.update(urls[1], "new content")
        cache.begin_query()
        client.get_batch(urls)  # three revalidations, one stale
        events = METRICS.counter("repro_cache_events_total")
        assert {
            event: events.value(event=event, policy="cross_query", scheme="")
            for event in ("miss", "hit", "revalidation", "stale")
        } == {"miss": 4, "hit": 1, "revalidation": 3, "stale": 1}
        assert events.total() == 9

    def test_off_policy_matches_uncached_client_bit_for_bit(self):
        server_a, urls = make_server(4)
        server_b, _ = make_server(4)
        plain = WebClient(server_a)
        off = WebClient(server_b, cache=NO_CACHE)
        for client in (plain, off):
            client.get_batch(urls + urls)
            client.get(urls[0])
        assert off.log.page_downloads == plain.log.page_downloads
        assert off.log.light_connections == plain.log.light_connections
        assert off.log.simulated_seconds == plain.log.simulated_seconds
        assert off.log.cache_hits == 0 and off.log.pages_saved == 0

    def test_per_call_cache_overrides_the_attached_cache(self):
        server, urls = make_server(1)
        cache = PageCache()
        client = WebClient(server, cache=cache)
        client.get(urls[0], cache=NO_CACHE)
        assert len(cache) == 0
        assert client.log.cache_hits == 0


class TestFetchConfigValidation:
    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_rejects_non_positive_workers(self, bad):
        with pytest.raises(ValueError, match="at least 1"):
            FetchConfig(max_workers=bad)

    @pytest.mark.parametrize("bad", [True, 2.0, "4"])
    def test_rejects_non_integer_workers(self, bad):
        with pytest.raises(ValueError, match="positive integer or None"):
            FetchConfig(max_workers=bad)

    def test_none_still_means_follow_the_network_model(self):
        assert FetchConfig().max_workers is None


# --------------------------------------------------------------------- #
# cache-aware costing
# --------------------------------------------------------------------- #


class TestCacheEstimate:
    def test_rates_are_clamped_and_hashable(self):
        est = CacheEstimate({"A": 1.7, "B": -0.5, "C": 0.25})
        assert est.rate("A") == 1.0
        assert est.rate("B") == 0.0
        assert est.rate("Unknown") == 0.0
        assert est == CacheEstimate({"B": 0.0, "A": 1.0, "C": 0.25})
        assert hash(est) == hash(CacheEstimate({"A": 1.0, "B": 0, "C": 0.25}))

    def test_light_weight_validated(self):
        with pytest.raises(OptimizerError):
            CacheEstimate({}, light_weight=1.5)

    def test_page_factor(self):
        est = CacheEstimate({"A": 0.5}, light_weight=0.2)
        assert est.page_factor("A") == pytest.approx(0.5 + 0.5 * 0.2)
        assert est.page_factor("B") == 1.0

    def test_from_cache_uses_scheme_cardinalities(self):
        env = university(UniversityConfig(n_depts=2, n_profs=6, n_courses=8))
        cache = env.enable_cache()
        env.query("SELECT PName, Rank FROM Professor")
        est = CacheEstimate.from_cache(cache, env.stats)
        assert est.rate("ProfPage") == 1.0  # every professor page cached
        assert est.rate("CoursePage") == 0.0


SQL_7_2 = (
    "SELECT Professor.PName, email FROM Course, CourseInstructor, "
    "Professor, ProfDept WHERE Course.CName = CourseInstructor.CName "
    "AND CourseInstructor.PName = Professor.PName "
    "AND Professor.PName = ProfDept.PName "
    "AND ProfDept.DName = 'Computer Science' AND Type = 'Graduate'"
)


class TestCacheAwarePlanner:
    def test_warming_the_join_makes_the_example_7_2_chase_cheaper(self):
        """The join's pointer set covers most of the chase's, and a cached
        page costs a light connection, not nothing: the chase stays."""
        env = university(UniversityConfig(n_depts=3, n_profs=20, n_courses=50))
        env.enable_cache(capacity=4096)
        cold = env.plan(SQL_7_2)
        assert cold.cache_estimate is None  # empty cache: plain C(E)
        join = next(
            c for c in cold.candidates
            if "SessionListPage" in c.render() and "⋈" in c.render()
        )
        assert cold.best.cost < join.cost  # chase wins cold
        env.execute(join.expr)  # warm the join plan's pointer set
        warm = env.plan(SQL_7_2)
        assert warm.cache_estimate.light_weight == env.light_weight
        assert warm.best.render() == cold.best.render()
        assert warm.best.cost < cold.best.cost == warm.uncached_cost
        assert warm.cost.pages_saved > 0

    def test_warm_cache_flips_a_plan_over_disjoint_pointer_sets(self):
        """The Introduction's two navigations share the home page only:
        with the via-authors pages cached, that route wins."""
        env = bibliography()
        env.enable_cache(capacity=4096)
        sql = "SELECT ConfName, Year, Title, AName FROM PaperAuthor"
        cold = env.plan(sql)
        assert "ToAuthorList" not in cold.best.render()  # via conferences
        authors = next(
            c for c in cold.candidates if "ToAuthorList" in c.render()
        )
        env.execute(authors.expr)
        warm = env.plan(sql)
        assert warm.best.render() == authors.render()
        assert warm.best.cost < cold.best.cost < warm.uncached_cost
        assert warm.best.cost == pytest.approx(
            env.light_weight * warm.uncached_cost
        )

    def test_estimates_key_the_planner_memo(self):
        env = university(UniversityConfig(n_depts=2, n_profs=6, n_courses=8))
        sql = "SELECT PName, Rank FROM Professor"
        plain = env.plan(sql)
        est = CacheEstimate({"ProfPage": 1.0})
        warm = env.planner.plan_query(env.sql(sql), cache_estimate=est)
        assert warm is not plain
        assert warm.best.cost < plain.best.cost
        assert env.planner.plan_query(env.sql(sql), cache_estimate=est) is warm


# --------------------------------------------------------------------- #
# property: caching never changes an answer, warm never costs more
# --------------------------------------------------------------------- #


class TestCacheTransparencyAllSites:
    QUERIES = {
        "university": "SELECT PName, Rank FROM Professor",
        "bibliography": (
            "SELECT Title, AName FROM PaperAuthor WHERE ConfName = 'VLDB'"
        ),
        "movies": "SELECT Title, DName FROM MovieDirector",
    }
    BUILDERS = {
        "university": university,
        "bibliography": bibliography,
        "movies": movies,
    }

    @pytest.mark.parametrize("site_name", sorted(QUERIES))
    def test_off_vs_cross_query_cold_and_warm(self, site_name):
        sql = self.QUERIES[site_name]

        plain_env = self.BUILDERS[site_name]()
        reference = plain_env.query(sql)

        cached_env = self.BUILDERS[site_name]()
        cached_env.enable_cache(capacity=4096)
        cold = cached_env.query(sql)
        warm = cached_env.query(sql)

        assert cold.relation.same_contents(reference.relation)
        assert warm.relation.same_contents(reference.relation)
        assert cold.pages == reference.pages
        assert warm.pages <= cold.pages
        assert warm.pages + warm.pages_saved >= cold.pages
        # bypassing the attached cache restores the uncached cost
        off = cached_env.query(sql, options=QueryOptions(cache="off"))
        assert off.relation.same_contents(reference.relation)
        assert off.pages == reference.pages


# --------------------------------------------------------------------- #
# the wrapped tuple lives and dies with its cache entry
# --------------------------------------------------------------------- #


class FakeRegistry:
    """Stands in for a WrapperRegistry: wraps anything, logs every call."""

    def __init__(self):
        self.calls = []
        self.broken = False

    def wrap(self, page_scheme, url, html):
        self.calls.append((page_scheme, url))
        if self.broken:
            raise WrapperError(f"cannot wrap {url}")
        return {"URL": url, "scheme": page_scheme, "size": len(html)}


def wrap_in_new_query(client, registry, cache, page_scheme, url):
    """One query's worth of work on one page: fresh session, fetch, wrap."""
    cache.begin_query()
    session = QuerySession(client, registry, cache=cache)
    return session.fetch_tuple(page_scheme, url)


class TestEntryOwnedTuples:
    """Unit level: a fake registry over an eight-page server."""

    def setup_method(self):
        self.server, self.urls = make_server()
        self.registry = FakeRegistry()
        self.client = WebClient(self.server)

    def wrap(self, cache, url, page_scheme="S"):
        return wrap_in_new_query(
            self.client, self.registry, cache, page_scheme, url
        )

    def test_one_wrap_per_download_then_none(self):
        cache = PageCache()
        url = self.urls[0]
        first = self.wrap(cache, url)
        second = self.wrap(cache, url)
        assert self.registry.calls == [("S", url)]
        assert second is first  # shared, not re-derived
        # the light connection still happened; only the parse was skipped
        assert self.client.log.page_downloads == 1
        assert self.client.log.light_connections == 1
        assert self.client.log.revalidations == 1

    def test_a_changed_page_is_wrapped_again_once(self):
        cache = PageCache()
        url = self.urls[0]
        self.wrap(cache, url)
        self.server.update(url, "x" * 7)
        assert self.wrap(cache, url)["size"] == 7
        self.server.touch(url)  # same bytes, new date: the entry is replaced
        self.wrap(cache, url)
        self.wrap(cache, url)
        assert self.registry.calls == [("S", url)] * 3

    @pytest.mark.parametrize("drop", ["evict", "invalidate", "clear", "replace"])
    def test_the_tuple_dies_with_its_entry(self, drop):
        cache = PageCache(capacity=1)
        url, other = self.urls[:2]
        self.wrap(cache, url)
        if drop == "evict":
            cache.store(self.server.resource(other))
        elif drop == "invalidate":
            cache.invalidate(url)
        elif drop == "clear":
            cache.clear()
        else:
            cache.store(self.server.resource(url))
        self.wrap(cache, url)
        assert self.registry.calls == [("S", url)] * 2

    def test_per_query_entries_take_their_tuples_along(self):
        cache = PageCache(policy="per_query")
        url = self.urls[0]
        self.wrap(cache, url)
        # same query, second session: a free hit carrying the tuple
        QuerySession(self.client, self.registry, cache=cache).fetch_tuple("S", url)
        assert self.registry.calls == [("S", url)]
        self.wrap(cache, url)  # begin_query dropped the entry
        assert self.registry.calls == [("S", url)] * 2

    def test_page_scheme_is_part_of_the_lookup(self):
        cache = PageCache()
        url = self.urls[0]
        as_s = self.wrap(cache, url, "S")
        as_t = self.wrap(cache, url, "T")
        assert (as_s["scheme"], as_t["scheme"]) == ("S", "T")
        assert self.wrap(cache, url, "S") is as_s
        assert self.wrap(cache, url, "T") is as_t
        assert self.registry.calls == [("S", url), ("T", url)]

    def test_a_failed_wrap_is_not_remembered(self):
        cache = PageCache()
        url = self.urls[0]
        self.registry.broken = True
        for _ in range(2):
            with pytest.raises(WrapperError):
                self.wrap(cache, url)
        self.registry.broken = False
        assert self.wrap(cache, url)["URL"] == url
        assert len(self.registry.calls) == 3

    def test_off_retains_nothing(self):
        url = self.urls[0]
        for _ in range(2):
            plain = self.wrap(NO_CACHE, url)
        assert self.registry.calls == [("S", url)] * 2
        assert len(NO_CACHE) == 0
        assert plain["URL"] == url

    def test_live_server_resources_never_carry_tuples(self):
        cache = PageCache()
        for url in self.urls:
            self.wrap(cache, url)
        assert all(
            self.server.resource(url).tuples is None for url in self.urls
        )
        assert all(cache.lookup(url).tuples for url in self.urls)


COURSES_SQL = "SELECT CName, Description FROM Course WHERE Session = 'Fall'"


class TestTupleCacheEndToEnd:
    """Whole queries over the small university site."""

    def warm_env(self, shards=1):
        env = university(UniversityConfig(n_depts=2, n_profs=6, n_courses=12))
        cache = env.enable_cache(capacity=4096, shards=shards)
        plan = env.plan(COURSES_SQL, cache="off").best.expr
        cold = env.execute(plan, options=QueryOptions(cache=cache))
        return env, cache, plan, cold

    def run(self, env, cache, plan, **options):
        with counted_wraps(env.registry) as wraps:
            result = env.execute(plan, options=QueryOptions(cache=cache, **options))
        return result, wraps

    def test_warm_query_parses_nothing_and_still_checks_every_page(self):
        env, cache, plan, cold = self.warm_env()
        warm, wraps = self.run(env, cache, plan)
        assert wraps == []
        assert warm.pages == 0
        assert warm.light_connections == warm.revalidations == cold.pages
        assert warm.relation.same_contents(cold.relation)

    def test_exactly_the_changed_pages_are_parsed_once(self):
        env, cache, plan, cold = self.warm_env()
        course = next(
            c for c in env.site.courses if c.url in cold.log.downloaded_urls
        )
        touched = next(
            url for url in cold.log.downloaded_urls if url != course.url
        )
        SiteMutator(env.site).update_course_description(course, "rewritten")
        env.site.server.touch(touched)
        stale, wraps = self.run(env, cache, plan)
        assert sorted(url for _, url in wraps) == sorted([course.url, touched])
        assert stale.pages == 2
        assert stale.light_connections == cold.pages
        assert ("rewritten" in str(stale.relation.rows)) == (
            course.session == "Fall"
        )
        _, wraps = self.run(env, cache, plan)
        assert wraps == []

    def test_shard_count_changes_nothing(self):
        def trajectory(shards):
            env, cache, plan, cold = self.warm_env(shards)
            steps = [(cold.pages, cold.light_connections, None)]
            for round_no in range(3):
                if round_no == 1:
                    SiteMutator(env.site).revise_courses(0.5)
                result, wraps = self.run(env, cache, plan)
                steps.append(
                    (result.pages, result.light_connections, sorted(wraps))
                )
            return steps, relation_digest(result.relation)

        assert trajectory(1) == trajectory(2) == trajectory(4)

    def test_no_execution_mode_writes_to_a_cached_tuple(self):
        env, cache, plan, cold = self.warm_env()

        def cached_tuples():
            return {url: cache.lookup(url).tuples for url in cache.urls()}

        pristine = copy.deepcopy(cached_tuples())
        assert all(pristine.values())
        for mode in EXECUTION_MODES:
            result, wraps = self.run(env, cache, plan, execution=mode)
            assert wraps == []
            assert result.relation.same_contents(cold.relation)
            assert cached_tuples() == pristine, mode

    def test_four_threads_share_one_cache(self):
        env, cache, plan, cold = self.warm_env()
        solo = relation_digest(cold.relation)
        digests, errors = [], []

        def worker():
            # one client per thread (an AccessLog has a single writer);
            # the cache, its entries and their tuples are shared
            client = WebClient(env.site.server, cache=cache)
            executor = RemoteExecutor(env.scheme, client, env.registry)
            try:
                for _ in range(50):
                    result = executor.execute(
                        plan, options=QueryOptions(cache=cache)
                    )
                    digests.append(relation_digest(result.relation))
                errors.extend(client.log.reconcile())
            except Exception as err:  # surfaced by the assert below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert digests == [solo] * 200
