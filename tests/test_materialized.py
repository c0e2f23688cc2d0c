"""Tests for the materialized-view machinery (paper, Section 8)."""

import pytest

from repro.errors import MaterializationError
from repro.materialized.evaluate import MaterializedEngine
from repro.materialized.maintenance import (
    consistency_report,
    full_refresh,
    process_check_missing,
)
from repro.materialized.store import MaterializedStore, Status
from repro.sitegen.mutations import SiteMutator
from repro.sitegen.university import UniversityConfig
from repro.sites import university
from repro.views.sql import parse_query
from repro.web.cache import PageCache
from repro.web.client import WebClient


@pytest.fixture()
def env():
    return university(UniversityConfig(n_depts=2, n_profs=6, n_courses=12))


@pytest.fixture()
def store(env):
    store = MaterializedStore(
        env.scheme, WebClient(env.site.server), env.registry
    )
    store.populate()
    store.client.log.reset()
    return store


@pytest.fixture()
def engine(env, store):
    return MaterializedEngine(store, env.planner)


@pytest.fixture()
def mutator(env):
    return SiteMutator(env.site)


CS_QUERY = (
    "SELECT Professor.PName, email FROM Professor, ProfDept "
    "WHERE Professor.PName = ProfDept.PName "
    "AND ProfDept.DName = 'Computer Science'"
)


def cs_profs(env):
    return [p for p in env.site.profs if p.dept.name == "Computer Science"]


class TestPopulate:
    def test_populates_whole_site(self, env, store):
        assert store.page_count() == len(env.site.server)

    def test_stored_tuples_match_site(self, env, store):
        prof = env.site.profs[0]
        assert store.stored(prof.url).tuples["ProfPage"] == {
            "URL": prof.url,
            **env.site.prof_tuple(prof),
        }

    def test_tuples_of(self, env, store):
        assert len(store.tuples_of("ProfPage")) == len(env.site.profs)
        from repro.errors import MaterializationError

        with pytest.raises(MaterializationError):
            store.tuples_of("Nope")


class TestURLCheck:
    def test_fresh_page_costs_one_light_connection(self, env, store):
        prof = env.site.profs[0]
        plain = store.url_check("ProfPage", prof.url)
        assert plain["PName"] == prof.name
        assert store.client.log.light_connections == 1
        assert store.client.log.page_downloads == 0
        assert store.status_of(prof.url) is Status.CHECKED

    def test_checked_page_costs_nothing_again(self, env, store):
        prof = env.site.profs[0]
        store.url_check("ProfPage", prof.url)
        store.url_check("ProfPage", prof.url)
        assert store.client.log.light_connections == 1

    def test_stale_page_redownloaded(self, env, store, mutator):
        prof = env.site.profs[0]
        mutator.update_prof_rank(prof, "Emeritus")
        plain = store.url_check("ProfPage", prof.url)
        assert plain["Rank"] == "Emeritus"
        assert store.client.log.page_downloads == 1
        assert store.stored(prof.url).tuples["ProfPage"]["Rank"] == "Emeritus"

    def test_deleted_page_removed_and_queued(self, env, store, mutator):
        course = env.site.courses[0]
        mutator.remove_course(course)
        assert store.url_check("CoursePage", course.url) is None
        assert store.stored(course.url) is None
        assert store.status_of(course.url) is Status.MISSING
        assert course.url in store.check_missing

    def test_new_links_flagged(self, env, store, mutator):
        prof = env.site.profs[0]
        course = mutator.add_course(prof)
        store.url_check("ProfPage", prof.url)  # re-downloads prof page
        assert store.status_of(course.url) is Status.NEW

    def test_new_flag_forces_download(self, env, store, mutator):
        prof = env.site.profs[0]
        course = mutator.add_course(prof)
        store.url_check("ProfPage", prof.url)
        downloads_before = store.client.log.page_downloads
        plain = store.url_check("CoursePage", course.url)
        assert plain["CName"] == course.name
        assert store.client.log.page_downloads == downloads_before + 1

    def test_vanished_links_flagged_missing(self, env, store, mutator):
        course = env.site.courses[0]
        prof = course.prof
        mutator.remove_course(course)
        store.url_check("ProfPage", prof.url)  # prof page lost the link
        assert store.status_of(course.url) is Status.MISSING

    def test_unknown_url_downloaded(self, env, store, mutator):
        prof = mutator.add_prof(env.site.depts[0].name)
        plain = store.url_check("ProfPage", prof.url)
        assert plain["PName"] == prof.name

    def test_reset_status(self, env, store):
        prof = env.site.profs[0]
        store.url_check("ProfPage", prof.url)
        store.reset_status()
        assert store.status_of(prof.url) is Status.NONE


class TestAlgorithm3:
    def test_query_without_updates_is_light_only(self, env, engine):
        result = engine.query(parse_query(CS_QUERY, env.view))
        assert result.pages == 0
        assert result.light_connections > 0
        got = {(r["PName"], r["email"]) for r in result.relation}
        assert got == {(p.name, p.email) for p in cs_profs(env)}

    def test_light_connections_close_to_plan_cost(self, env, engine):
        """The paper: cost ≈ C(E) light connections when nothing changed."""
        query = parse_query(CS_QUERY, env.view)
        plan = env.plan(query)
        result = engine.execute(plan.best.expr)
        assert result.light_connections <= plan.best.cost * 1.5 + 2

    def test_updated_page_downloaded_and_answer_fresh(
        self, env, engine, mutator
    ):
        prof = cs_profs(env)[0]
        mutator.update_prof_rank(prof, "Emeritus")
        result = engine.query(
            parse_query(
                "SELECT Professor.PName, Rank FROM Professor, ProfDept "
                "WHERE Professor.PName = ProfDept.PName "
                "AND ProfDept.DName = 'Computer Science'",
                env.view,
            )
        )
        by_name = {r["PName"]: r["Rank"] for r in result.relation}
        assert by_name[prof.name] == "Emeritus"
        assert result.pages == 1  # only the changed page

    def test_inserted_page_appears_in_answer(self, env, engine, mutator):
        new_prof = mutator.add_prof("Computer Science", name="Zoe Newhire")
        result = engine.query(parse_query(CS_QUERY, env.view))
        names = {r["PName"] for r in result.relation}
        assert "Zoe Newhire" in names

    def test_deleted_page_disappears_from_answer(self, env, engine, mutator):
        victim = cs_profs(env)[0]
        mutator.remove_prof(victim)
        result = engine.query(parse_query(CS_QUERY, env.view))
        names = {r["PName"] for r in result.relation}
        assert victim.name not in names

    def test_unchecked_mode_returns_stale_answer(self, env, engine, mutator):
        query = parse_query(CS_QUERY, env.view)
        plan = env.plan(query).best.expr
        victim = cs_profs(env)[0]
        mutator.remove_prof(victim)
        stale = engine.execute(plan, check=False)
        assert victim.name in {r["PName"] for r in stale.relation}
        assert stale.light_connections == 0
        fresh = engine.execute(plan, check=True)
        assert victim.name not in {r["PName"] for r in fresh.relation}

    def test_query_touches_only_plan_pages(self, env, engine, mutator):
        """Updates to pages outside the plan cost nothing (the paper's
        point (i): only a minimal number of pages is checked)."""
        # update a Mathematics professor; the CS query must not notice
        math_prof = next(
            p for p in env.site.profs if p.dept.name != "Computer Science"
        )
        mutator.update_prof_rank(math_prof, "Emeritus")
        result = engine.query(parse_query(CS_QUERY, env.view))
        assert result.pages == 0

    def test_repeated_queries_reconverge_to_light_only(
        self, env, engine, mutator
    ):
        query = parse_query(CS_QUERY, env.view)
        mutator.update_prof_rank(cs_profs(env)[0], "Emeritus")
        first = engine.query(query)
        assert first.pages == 1
        second = engine.query(query)
        assert second.pages == 0

    def test_consistency_is_only_local(self, env, engine, mutator):
        """The paper's caveat: a new professor found via one path is not
        inserted elsewhere until a query navigates there."""
        new_prof = mutator.add_prof("Computer Science", name="Zoe Newhire")
        engine.query(parse_query(CS_QUERY, env.view))
        # the dept page (route of this plan) is fresh...
        dept = next(d for d in env.site.depts if d.name == "Computer Science")
        dept_tuple = engine.store.stored(dept.url).tuples["DeptPage"]
        assert any(
            i["PName"] == "Zoe Newhire" for i in dept_tuple["ProfList"]
        )
        # ...but the global professor list page was never on the plan's
        # route, so it is still the old version
        prof_list_url = env.site.entry_url("ProfListPage")
        stored_list = engine.store.stored(prof_list_url).tuples["ProfListPage"]
        assert all(
            i["PName"] != "Zoe Newhire" for i in stored_list["ProfList"]
        )


class TestStoreInTheClientsCache:
    """A store whose client carries a cross-query cache keeps its pages in
    that cache: one copy per page, and Function 2's light connection is
    the only revalidation, so a changed page is re-downloaded, not served
    from a copy the cache still trusts."""

    RANKS = (
        "SELECT Professor.PName, Rank FROM Professor, ProfDept "
        "WHERE Professor.PName = ProfDept.PName "
        "AND ProfDept.DName = 'Computer Science'"
    )

    def test_a_changed_page_is_answered_fresh_with_one_download(self, env):
        cache = PageCache(capacity=4096)
        client = WebClient(env.site.server, cache=cache)
        store = MaterializedStore(env.scheme, client, env.registry)
        store.populate()
        engine = MaterializedEngine(store, env.planner)
        query = parse_query(self.RANKS, env.view)
        prof = cs_profs(env)[0]
        SiteMutator(env.site).update_prof_rank(prof, "Emeritus")
        changed = engine.query(query)
        assert {r["PName"]: r["Rank"] for r in changed.relation}[prof.name] == (
            "Emeritus"
        )
        assert changed.pages == 1
        again = engine.query(query)
        assert again.relation.canonical() == changed.relation.canonical()
        assert again.pages == 0
        assert len(cache) == store.page_count() == len(env.site.server)
        assert set(cache.urls()) == set(env.site.server.urls())

    def test_sharding_a_store_in_a_cache_is_an_error(self, env):
        client = WebClient(env.site.server, cache=PageCache(capacity=64))
        with pytest.raises(MaterializationError, match="shards"):
            MaterializedStore(env.scheme, client, env.registry, shards=2)


class TestMaintenance:
    def test_process_check_missing(self, env, store, mutator):
        course = env.site.courses[0]
        prof = course.prof
        mutator.remove_course(course)
        store.url_check("ProfPage", prof.url)
        assert store.status_of(course.url) is Status.MISSING
        store.check_missing.add(course.url)
        result = process_check_missing(store)
        assert result["deleted"] == 1
        assert store.stored(course.url) is None
        assert not store.check_missing

    def test_check_missing_keeps_alive_pages(self, env, store):
        prof = env.site.profs[0]
        store.check_missing.add(prof.url)
        result = process_check_missing(store)
        assert result["still_alive"] == 1
        assert store.stored(prof.url) is not None

    def test_full_refresh_restores_consistency(self, env, store, mutator):
        mutator.remove_prof(env.site.profs[0])
        mutator.add_prof(env.site.depts[0].name)
        mutator.revise_courses(0.25)
        report = full_refresh(store)
        assert report["redownloaded"] > 0
        assert consistency_report(store).is_consistent

    def test_consistency_report_detects_drift(self, env, store, mutator):
        mutator.update_prof_rank(env.site.profs[0], "Emeritus")
        report = consistency_report(store)
        assert report.stale_pages >= 1
        assert not report.is_consistent

    def test_consistency_report_clean_store(self, env, store):
        report = consistency_report(store)
        assert report.is_consistent
        assert report.stored_pages == store.page_count()

    def test_consistency_report_heads_each_unstored_target_once(
        self, env, store
    ):
        """One light connection per stored page plus one per *distinct*
        unstored link target, however many stored pages link to it; every
        (page, link) pair is still listed."""
        prof = env.site.profs[0]
        store._remove(prof.url)
        before = store.client.log.snapshot()
        report = consistency_report(store)
        lights = store.client.log.delta(before).light_connections
        pairs = report.unstored_link_targets + report.dangling_links
        assert {link for _page, link in pairs} == {prof.url}
        assert len(pairs) > 1  # the professor is linked from several pages
        assert lights == store.page_count() + 1


class TestURLCheckEdgeCases:
    def test_checked_then_removed_returns_none(self, env, store):
        """A URL checked (and found missing) earlier in the query keeps
        returning None without further connections."""
        course = env.site.courses[0]
        env.site.server.delete(course.url)
        assert store.url_check("CoursePage", course.url) is None
        light_before = store.client.log.light_connections
        assert store.url_check("CoursePage", course.url) is None
        # MISSING status short-circuits: no repeated light connection...
        # (the second call goes through the MISSING branch, not CHECKED)
        assert store.client.log.light_connections <= light_before + 1

    def test_dangling_new_url_marked_missing(self, env, store, mutator):
        """A link flagged NEW whose page 404s lands in CheckMissing."""
        prof = env.site.profs[0]
        course = mutator.add_course(prof)
        store.url_check("ProfPage", prof.url)  # flags the new course link
        env.site.server.delete(course.url)     # and now it is gone
        from repro.materialized.store import Status

        assert store.url_check("CoursePage", course.url) is None
        assert store.status_of(course.url) is Status.MISSING
        assert course.url in store.check_missing


class TestOptionsValidation:
    """Only ``QueryOptions.tracer`` applies to Algorithm 3; everything
    else must be rejected naming the actual QueryOptions fields."""

    def plan(self, env):
        return env.plan(parse_query(CS_QUERY, env.view)).best.expr

    def test_default_options_accepted(self, env, engine):
        from repro.options import QueryOptions

        result = engine.execute(self.plan(env), options=QueryOptions())
        assert result.pages == 0

    def test_network_fields_rejected_by_queryoptions_name(self, env, engine):
        from repro.errors import OptionsError
        from repro.options import QueryOptions

        with pytest.raises(OptionsError) as excinfo:
            engine.execute(
                self.plan(env),
                options=QueryOptions(cache="off", execution="pipelined"),
            )
        message = str(excinfo.value)
        assert "QueryOptions.cache" in message
        assert "QueryOptions.execution" in message
        assert "QueryOptions.tracer" in message  # names the one that applies

    def test_journal_rejected_not_silently_ignored(self, env, engine):
        from repro.errors import OptionsError
        from repro.obs.journal import Journal
        from repro.options import QueryOptions

        with pytest.raises(OptionsError) as excinfo:
            engine.execute(
                self.plan(env), options=QueryOptions(journal=Journal())
            )
        assert "QueryOptions.journal" in str(excinfo.value)

    def test_message_never_uses_legacy_kwarg_names(self, env, engine):
        """The pre-QueryOptions kwargs (fetch_config, retry_policy) are
        deprecated aliases; the rejection must speak the current API."""
        from repro.errors import OptionsError
        from repro.options import QueryOptions
        from repro.web.client import FetchConfig

        with pytest.raises(OptionsError) as excinfo:
            engine.execute(
                self.plan(env),
                options=QueryOptions(fetch=FetchConfig(max_workers=2)),
            )
        message = str(excinfo.value)
        assert "QueryOptions.fetch" in message
        assert "fetch_config" not in message
        assert "retry_policy" not in message

    def test_non_queryoptions_rejected(self, env, engine):
        from repro.errors import OptionsError

        with pytest.raises(OptionsError):
            engine.execute(self.plan(env), options={"cache": "off"})


class TestSingleLightConnectionCodePath:
    def test_every_light_connection_goes_through_the_one_hook(
        self, env, store, engine, mutator
    ):
        """URLCheck runs, maintenance, and cache revalidation all charge
        light connections through WebClient._charge_heads — the counter
        and the summed charges can never drift apart."""
        client = store.client
        charged = {"n": 0, "calls": 0}
        original = client._charge_heads

        def counting(urls, makespan=None):
            charged["n"] += len(urls)
            charged["calls"] += 1
            original(urls, makespan)

        client._charge_heads = counting
        try:
            client.log.reset()
            engine.query(env.sql(CS_QUERY))           # Algorithm 3 checks
            mutator.update_prof_rank(env.site.profs[0], "Emeritus")
            engine.query(env.sql(CS_QUERY))           # one stale re-download
            process_check_missing(store)
            consistency_report(store)
        finally:
            client._charge_heads = original
        assert client.log.light_connections == charged["n"]
        assert charged["n"] > 0
        # runs, not URLs: fewer charges than light connections
        assert charged["calls"] < charged["n"]

    def test_charge_heads_is_the_only_counting_site(self):
        """Grep-level guarantee: the counter is bumped exactly once, in
        _charge_heads; everything else calls through it."""
        import inspect

        from repro.web import client as client_module

        source = inspect.getsource(client_module)
        assert source.count("light_connections +=") == 1
        charging = inspect.getsource(client_module.WebClient._charge_heads)
        assert "light_connections +=" in charging
