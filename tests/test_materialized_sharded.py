"""Tests for the URL-hash-sharded store, sharded page cache, and the
batched shard-parallel refresh (docs/MATERIALIZED.md)."""

import pytest

from repro.errors import MaterializationError, WebError
from repro.materialized import (
    MaterializedEngine,
    MaterializedStore,
    ShardedMaterializedStore,
    batch_refresh,
)
from repro.materialized.maintenance import consistency_report
from repro.sitegen.mutations import SiteMutator, perturb_server
from repro.sitegen.university import UniversityConfig
from repro.sites import university
from repro.views.sql import parse_query
from repro.web import WebClient
from repro.web.cache import PageCache, ShardedPageCache, shard_of
from repro.web.resources import WebResource


@pytest.fixture()
def env():
    return university(UniversityConfig(n_depts=2, n_profs=6, n_courses=12))


def build_store(env, shards=None, retain_schemes=None):
    if shards is None:
        store = MaterializedStore(
            env.scheme,
            WebClient(env.site.server),
            env.registry,
            retain_schemes=retain_schemes,
        )
    else:
        store = ShardedMaterializedStore(
            env.scheme,
            WebClient(env.site.server),
            env.registry,
            shards=shards,
            retain_schemes=retain_schemes,
        )
    store.populate()
    store.client.log.reset()
    return store


CS_QUERY = (
    "SELECT Professor.PName, email FROM Professor, ProfDept "
    "WHERE Professor.PName = ProfDept.PName "
    "AND ProfDept.DName = 'Computer Science'"
)


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

    def test_single_shard_matches_plain_cache(self):
        plain = PageCache(capacity=8)
        sharded = ShardedPageCache(capacity=8, shards=1)
        for index in range(12):  # overflows capacity: same LRU evictions
            plain.store(self.resource(index))
            sharded.store(self.resource(index))
        plain.lookup("http://s/p9.html")
        sharded.lookup("http://s/p9.html")
        assert sharded.urls() == plain.urls()
        assert len(sharded) == len(plain)

    def test_urls_routed_by_hash(self):
        cache = ShardedPageCache(capacity=32, shards=4)
        for index in range(20):
            cache.store(self.resource(index))
        for index in range(20):
            url = f"http://s/p{index}.html"
            shard = cache._shards[shard_of(url, 4)]
            assert url in shard
        assert sum(cache.shard_sizes()) == len(cache) == 20

    def test_stats_are_shared(self):
        cache = ShardedPageCache(capacity=32, shards=4)
        cache.store(self.resource(0))
        cache.store(self.resource(1))
        assert cache.stats.stores == 2  # sub-cache stores land in one ledger
        for shard in cache._shards:
            assert shard.stats is cache.stats

    def test_invalid_shard_count_rejected(self):
        for bad in (0, -1, True, 1.5):
            with pytest.raises(WebError):
                ShardedPageCache(shards=bad)


class TestShardedStore:
    def test_invalid_shard_count_rejected(self, env):
        for bad in (0, -2, True):
            with pytest.raises(MaterializationError):
                ShardedMaterializedStore(
                    env.scheme,
                    WebClient(env.site.server),
                    env.registry,
                    shards=bad,
                )

    def test_single_shard_bit_for_bit(self, env):
        """shards=1 must be indistinguishable from the unsharded store:
        same pages, same iteration order, same network cost."""
        plain = build_store(env)
        single = build_store(env, shards=1)
        for scheme_name in plain.pages:
            assert list(single.pages[scheme_name]) == list(
                plain.pages[scheme_name]
            )
        assert single.page_count() == plain.page_count()

    def test_pages_routed_by_hash(self, env):
        store = build_store(env, shards=4)
        for index, shard in enumerate(store.shards):
            for pages in shard.pages.values():
                for url in pages:
                    assert store.shard_index(url) == index
        assert store.page_count() == len(env.site.server)

    def test_per_query_state_shared_across_shards(self, env):
        """A re-download in one shard must flag link targets living in
        other shards: status is one dict, aliased everywhere."""
        store = build_store(env, shards=4)
        mutator = SiteMutator(env.site)
        prof = env.site.profs[0]
        course = mutator.add_course(prof)
        store.url_check("ProfPage", prof.url)
        for shard in store.shards:
            assert shard.status is store.status
            assert shard.check_missing is store.check_missing
        from repro.materialized import Status

        assert store.status_of(course.url) is Status.NEW

    def test_sharded_answers_match_unsharded(self):
        """Same mutation stream, same refreshes: every query answer from
        the sharded store is bit-for-bit the unsharded store's."""
        results = {}
        for shards in (None, 3):
            env = university(
                UniversityConfig(n_depts=2, n_profs=6, n_courses=12)
            )
            store = build_store(env, shards=shards)
            perturb_server(env.site.server, seed=11, fraction=0.3)
            batch_refresh(store, workers=4)
            engine = MaterializedEngine(store, env.planner)
            result = engine.query(parse_query(CS_QUERY, env.view))
            results[shards] = result.relation.canonical()
        assert results[3] == results[None]


class TestBatchRefresh:
    def test_warm_refresh_laws(self, env):
        """A warm refresh costs exactly one light connection per stored
        page and zero downloads — per shard, not just in aggregate."""
        for shards in (None, 1, 2, 4):
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
            shard_urls = {
                url
                for pages in store.shards[index].pages.values()
                for url in pages
            }
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
