"""Tests for the execution engines (remote, local, sessions)."""

import pytest

from repro.algebra.ast import EntryPointScan, page_relation_schema
from repro.engine.local import LocalExecutor, qualify_row
from repro.engine.session import QuerySession
from repro.errors import NotComputableError
from repro.web.client import WebClient


@pytest.fixture()
def executor(uni_env):
    # dedicated client so tests don't interfere with each other's accounting
    from repro.engine.remote import RemoteExecutor

    return RemoteExecutor(
        uni_env.scheme, WebClient(uni_env.site.server), uni_env.registry
    )


def prof_nav():
    return (
        EntryPointScan("ProfListPage")
        .unnest("ProfListPage.ProfList")
        .follow("ProfListPage.ProfList.ToProf")
    )


class TestQualifyRow:
    def test_qualifies_nested(self, uni_env):
        schema = page_relation_schema(uni_env.scheme, "ProfPage")
        plain = {
            "URL": "u",
            "PName": "Ada",
            "Rank": "Full",
            "email": "a@x",
            "DName": "CS",
            "ToDept": "d",
            "CourseList": [{"CName": "DB", "ToCourse": "c"}],
        }
        row = qualify_row(schema, plain)
        assert row["ProfPage.URL"] == "u"
        assert row["ProfPage.CourseList"][0]["ProfPage.CourseList.CName"] == "DB"

    def test_missing_values_become_none(self, uni_env):
        schema = page_relation_schema(uni_env.scheme, "CoursePage")
        row = qualify_row(schema, {"URL": "u"})
        assert row["CoursePage.CName"] is None


class TestQuerySession:
    def test_fetch_dedups(self, uni_env):
        client = WebClient(uni_env.site.server)
        session = QuerySession(client, uni_env.registry)
        url = uni_env.site.profs[0].url
        session.fetch(url)
        session.fetch(url)
        assert client.log.page_downloads == 1
        assert session.pages_downloaded == 1

    def test_fetch_missing_returns_none(self, uni_env):
        client = WebClient(uni_env.site.server)
        session = QuerySession(client, uni_env.registry)
        assert session.fetch("http://univ.example/nope.html") is None
        # and the miss is cached too
        assert session.fetch("http://univ.example/nope.html") is None
        assert client.log.failed_requests == 1

    def test_fetch_tuple_caches_wrapping(self, uni_env):
        client = WebClient(uni_env.site.server)
        session = QuerySession(client, uni_env.registry)
        prof = uni_env.site.profs[0]
        t1 = session.fetch_tuple("ProfPage", prof.url)
        t2 = session.fetch_tuple("ProfPage", prof.url)
        assert t1 is t2
        assert t1["PName"] == prof.name


class TestRemoteExecutor:
    def test_entry_point_scan(self, uni_env, executor):
        result = executor.execute(EntryPointScan("ProfListPage"))
        assert len(result.relation) == 1
        assert result.pages == 1

    def test_unnest_yields_all_profs(self, uni_env, executor):
        expr = EntryPointScan("ProfListPage").unnest("ProfListPage.ProfList")
        result = executor.execute(expr)
        assert len(result.relation) == 20
        assert result.pages == 1  # unnest costs nothing

    def test_navigation_downloads_targets(self, uni_env, executor):
        result = executor.execute(prof_nav())
        assert len(result.relation) == 20
        assert result.pages == 21  # entry + 20 professor pages

    def test_navigation_dedups_shared_targets(self, uni_env, executor):
        """Two paths to the same pages: the session fetches each page once."""
        nav = prof_nav()
        expr = nav.join(
            EntryPointScan("DeptListPage")
            .unnest("DeptListPage.DeptList")
            .follow("DeptListPage.DeptList.ToDept")
            .unnest("DeptPage.ProfList")
            .follow("DeptPage.ProfList.ToProf", alias="P2"),
            [("ProfPage.PName", "P2.PName")],
        )
        result = executor.execute(expr)
        assert len(result.relation) == 20
        # 1 + 20 profs + 1 deptlist + 3 depts; prof pages shared
        assert result.pages == 25

    def test_selection_before_navigation_reduces_cost(self, uni_env, executor):
        expr = (
            EntryPointScan("DeptListPage")
            .unnest("DeptListPage.DeptList")
            .select_eq("DeptListPage.DeptList.DName", "Computer Science")
            .follow("DeptListPage.DeptList.ToDept")
        )
        result = executor.execute(expr)
        assert len(result.relation) == 1
        assert result.pages == 2

    def test_answer_matches_oracle(self, uni_env, executor):
        expr = prof_nav().project(
            ("PName", "ProfPage.PName"),
            ("Rank", "ProfPage.Rank"),
            ("email", "ProfPage.email"),
        )
        result = executor.execute(expr)
        got = {(r["PName"], r["Rank"], r["email"]) for r in result.relation}
        assert got == uni_env.site.expected_professor()

    def test_external_scan_rejected(self, uni_env, executor):
        from repro.algebra.ast import ExternalRelScan

        with pytest.raises(NotComputableError):
            executor.execute(ExternalRelScan("Professor", ("PName",)))

    def test_dangling_link_skipped(self, small_env):
        """Deleting a page leaves a dangling link; execution skips it."""
        from repro.engine.remote import RemoteExecutor

        site = small_env.site
        victim = site.profs[0]
        site.server.delete(victim.url)  # page gone, list links remain
        executor = RemoteExecutor(
            small_env.scheme, WebClient(site.server), small_env.registry
        )
        result = executor.execute(prof_nav())
        names = {r["ProfPage.PName"] for r in result.relation}
        assert victim.name not in names
        assert len(result.relation) == len(site.profs) - 1

    def test_per_query_accounting_is_isolated(self, uni_env, executor):
        first = executor.execute(EntryPointScan("ProfListPage"))
        second = executor.execute(EntryPointScan("ProfListPage"))
        assert first.pages == second.pages == 1


class TestLocalExecutor:
    def test_local_matches_remote(self, uni_env, executor):
        """A trusting local provider over pre-wrapped tuples computes the
        same answers as remote execution."""
        site = uni_env.site

        class OracleProvider:
            def entry_tuples(self, page_schemes):
                out = {}
                for page_scheme in page_schemes:
                    url = site.scheme.entry_point(page_scheme).url
                    out[page_scheme] = uni_env.registry.wrap(
                        page_scheme, url, site.server.resource(url).html
                    )
                return out

            def target_tuples(self, page_scheme, urls):
                out = {}
                for url in urls:
                    if site.server.exists(url):
                        out[url] = uni_env.registry.wrap(
                            page_scheme, url, site.server.resource(url).html
                        )
                return out

        expr = prof_nav().select_eq("ProfPage.Rank", "Full")
        local = LocalExecutor(uni_env.scheme, OracleProvider())
        remote_result = executor.execute(expr)
        assert local.evaluate(expr).same_contents(remote_result.relation)
