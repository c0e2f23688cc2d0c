"""Tests for sharding (``shards=N``) of the materialized store and the page
cache, and the batched shard-parallel refresh (docs/MATERIALIZED.md)."""

import pytest

from repro.errors import MaterializationError, WebError
from repro.materialized import (
    MaterializedEngine,
    MaterializedStore,
    Status,
    batch_refresh,
)
from repro.materialized.maintenance import consistency_report
from repro.sitegen.mutations import SiteMutator, perturb_server
from repro.sitegen.university import UniversityConfig
from repro.sites import university
from repro.views.sql import parse_query
from repro.web import WebClient
from repro.web.cache import CachePolicy, PageCache, shard_of
from repro.web.resources import WebResource


@pytest.fixture()
def env():
    return university(UniversityConfig(n_depts=2, n_profs=6, n_courses=12))


def build_store(env, shards=1, retain_schemes=None):
    store = MaterializedStore(
        env.scheme,
        WebClient(env.site.server),
        env.registry,
        retain_schemes=retain_schemes,
        shards=shards,
    )
    store.populate()
    store.client.log.reset()
    return store


CS_QUERY = (
    "SELECT Professor.PName, email FROM Professor, ProfDept "
    "WHERE Professor.PName = ProfDept.PName "
    "AND ProfDept.DName = 'Computer Science'"
)

ALL_COURSES = "SELECT CName, Description FROM Course"


class TestShardOf:
    def test_deterministic_and_in_range(self):
        urls = [f"http://site/page{i}.html" for i in range(50)]
        for url in urls:
            index = shard_of(url, 4)
            assert 0 <= index < 4
            assert shard_of(url, 4) == index  # stable across calls

    def test_not_all_in_one_shard(self):
        urls = [f"http://site/page{i}.html" for i in range(50)]
        assert len({shard_of(url, 4) for url in urls}) > 1

    def test_single_shard_is_identity(self):
        assert shard_of("http://anything", 1) == 0

    def test_pinned_values(self):
        """CRC32-based placement is part of the on-disk/layout contract:
        changing the hash silently re-homes every page."""
        assert shard_of("http://www.unibas.it/Welcome.html", 4) == 2


class TestShardedPageCache:
    def resource(self, index):
        return WebResource(
            url=f"http://s/p{index}.html",
            html="<html></html>",
            last_modified=1,
            page_scheme="P",
        )

    def test_shard_count_changes_nothing(self):
        """Within capacity, the shard count is invisible: same entries,
        same validation marks, same lifetime counters."""

        def trajectory(shards):
            cache = PageCache(capacity=32, shards=shards)
            for index in range(12):
                cache.store(self.resource(index))
            for index in range(0, 12, 3):
                cache.mark_validated(f"http://s/p{index}.html")
            cache.invalidate("http://s/p4.html")
            hits = [
                cache.lookup(f"http://s/p{index}.html") is not None
                for index in range(14)
            ]
            marks = [cache.is_validated(url) for url in sorted(cache.urls())]
            cache.begin_query()
            return (
                sorted(cache.urls()),
                len(cache),
                hits,
                marks,
                [cache.is_validated(url) for url in cache.urls()],
                cache.scheme_counts(),
                repr(cache.stats),
            )

        assert trajectory(1) == trajectory(3) == trajectory(4)

    def test_urls_routed_by_hash(self):
        cache = PageCache(capacity=32, shards=4)
        for index in range(20):
            cache.store(self.resource(index))
        expected = [0] * 4
        for index in range(20):
            expected[shard_of(f"http://s/p{index}.html", 4)] += 1
            assert f"http://s/p{index}.html" in cache
        assert cache.shard_sizes() == expected
        assert sum(cache.shard_sizes()) == len(cache) == 20

    def test_stats_are_shared(self):
        cache = PageCache(capacity=32, shards=4)
        cache.store(self.resource(0))
        cache.store(self.resource(1))
        assert shard_of("http://s/p0.html", 4) != shard_of("http://s/p1.html", 4)
        assert cache.stats.stores == 2  # two shards, one ledger

    def test_per_shard_lru_evicts_at_ceil_capacity_over_shards(self):
        """Each shard holds ceil(capacity / shards) pages and evicts its
        own least recently used page past that."""
        cache = PageCache(capacity=9, shards=4)  # 3 pages per shard
        for index in range(40):
            cache.store(self.resource(index))
        stored = [[] for _ in range(4)]
        for index in range(40):
            url = f"http://s/p{index}.html"
            stored[shard_of(url, 4)].append(url)
        assert cache.shard_sizes() == [min(3, len(urls)) for urls in stored]
        assert cache.urls() == [url for urls in stored for url in urls[-3:]]
        assert cache.stats.evictions == 40 - len(cache)

    def test_env_cache_flips_every_shard_to_per_query(self):
        """Planning with ``cache="per_query"`` flips the sharded env cache;
        the next query start empties every shard, not just one."""
        env = university(UniversityConfig(n_depts=2, n_profs=6, n_courses=12))
        cache = env.enable_cache(capacity=4096, shards=4)
        env.query(ALL_COURSES)
        assert all(cache.shard_sizes())  # every shard holds pages
        env.plan(ALL_COURSES, cache="per_query")
        assert cache.policy is CachePolicy.PER_QUERY
        cache.begin_query()
        assert cache.shard_sizes() == [0, 0, 0, 0]

    def test_invalid_shard_count_rejected(self):
        for bad in (0, -1, True, 1.5):
            with pytest.raises(WebError, match="shards"):
                PageCache(shards=bad)


class TestShardedStore:
    def test_invalid_shard_count_rejected(self, env):
        for bad in (0, -2, True):
            with pytest.raises(MaterializationError):
                MaterializedStore(
                    env.scheme,
                    WebClient(env.site.server),
                    env.registry,
                    shards=bad,
                )

    def test_shard_count_changes_nothing(self):
        """The shard count is invisible: same pages and tuples per
        page-scheme, same crawl cost."""

        def observe(shards):
            env = university(UniversityConfig(n_depts=2, n_profs=6, n_courses=12))
            store = MaterializedStore(
                env.scheme, WebClient(env.site.server), env.registry,
                shards=shards,
            )
            store.populate()
            log = store.client.log
            return (
                {name: sorted(store.tuples_of(name)) for name in env.scheme.page_schemes},
                {name: store.tuples_of(name) for name in env.scheme.page_schemes},
                store.page_count(),
                (log.page_downloads, log.light_connections),
            )

        assert observe(1) == observe(3) == observe(4)

    def test_pages_routed_by_hash(self, env):
        store = build_store(env, shards=4)
        for index, shard in enumerate(store.by_shard()):
            for page in shard:
                assert shard_of(page.url, 4) == index
        assert store.page_count() == len(env.site.server)

    def test_per_query_state_shared_across_shards(self, env):
        """A re-download in one shard must flag link targets living in
        other shards: the flags are the store's, not a shard's."""
        store = build_store(env, shards=4)
        mutator = SiteMutator(env.site)
        prof = env.site.profs[0]
        course = mutator.add_course(prof)
        store.url_check("ProfPage", prof.url)
        assert store.status_of(course.url) is Status.NEW

    def test_sharded_answers_match_unsharded(self):
        """Same mutation stream, same refreshes: every query answer from
        the sharded store is bit-for-bit the unsharded store's."""
        results = {}
        for shards in (1, 3):
            env = university(
                UniversityConfig(n_depts=2, n_profs=6, n_courses=12)
            )
            store = build_store(env, shards=shards)
            perturb_server(env.site.server, seed=11, fraction=0.3)
            batch_refresh(store, workers=4)
            engine = MaterializedEngine(store, env.planner)
            result = engine.query(parse_query(CS_QUERY, env.view))
            results[shards] = result.relation.canonical()
        assert results[3] == results[1]


class TestBatchRefresh:
    def test_warm_refresh_laws(self, env):
        """A warm refresh costs exactly one light connection per stored
        page and zero downloads — per shard, not just in aggregate."""
        for shards in (1, 2, 4):
            store = build_store(env, shards=shards)
            report = batch_refresh(store, workers=4)
            assert report.downloads == 0
            assert report.light_connections == store.page_count()
            for row in report.shards:
                assert row.downloads == 0
                assert row.light_connections == row.pages

    def test_stale_refresh_redownloads_exactly_touched(self, env):
        store = build_store(env, shards=2)
        touched = perturb_server(env.site.server, seed=5, fraction=0.25)
        report = batch_refresh(store, workers=4)
        assert report.downloads == len(touched)
        assert report.light_connections == store.page_count()
        # shard-local attribution: each lane re-downloads only its own
        touched_set = set(touched)
        for index, row in enumerate(report.shards):
            shard_urls = {page.url for page in store.by_shard()[index]}
            assert row.redownloaded == len(touched_set & shard_urls)

    def test_404_mid_revalidation_removes_page(self, env):
        """A page deleted behind the store's back 404s during the batch
        revalidation: it must leave the store, not crash the refresh."""
        store = build_store(env, shards=2)
        victim = env.site.courses[0]
        env.site.server.delete(victim.url)
        report = batch_refresh(store, workers=4)
        assert report.removed == 1
        assert store.stored(victim.url) is None
        assert victim.url not in store.check_missing  # processed, not queued

    def test_404_of_stale_page_mid_refresh(self, env):
        """Deletion through the mutator: the prof page goes stale (link
        gone) and the course page 404s — one refresh settles both."""
        store = build_store(env, shards=2)
        mutator = SiteMutator(env.site)
        victim = env.site.courses[0]
        mutator.remove_course(victim)
        report = batch_refresh(store, workers=4)
        assert report.removed == 1
        assert store.stored(victim.url) is None
        assert consistency_report(store).is_consistent

    def test_new_pages_fetched_after_shard_pass(self, env):
        """A page that appeared since the last refresh is discovered via
        its parent's re-download and fetched in the follow-up wave."""
        store = build_store(env, shards=2)
        mutator = SiteMutator(env.site)
        new_prof = mutator.add_prof("Computer Science", name="Zoe Newhire")
        report = batch_refresh(store, workers=4)
        assert report.added >= 1
        assert store.stored(new_prof.url) is not None
        assert consistency_report(store).is_consistent

    def test_refresh_report_totals_are_sums(self, env):
        store = build_store(env, shards=4)
        perturb_server(env.site.server, seed=9, fraction=0.2)
        report = batch_refresh(store, workers=4)
        assert report.checked == sum(r.pages for r in report.shards)
        assert report.light_connections == sum(
            r.light_connections for r in report.shards
        )

    def test_partial_store_refreshes_only_retained(self, env):
        retained = frozenset({"ProfPage", "DeptPage"})
        store = build_store(env, shards=2, retain_schemes=retained)
        report = batch_refresh(store, workers=4)
        assert report.light_connections == store.page_count()
        assert store.page_count() == len(env.site.profs) + len(env.site.depts)
