"""Tests for optional-link semantics, via the movie site.

Optional attributes are the one model feature (Section 3.1) the university
and bibliography sites don't exercise: null links must survive wrapping,
navigation must drop null-link rows, rule 5 must refuse to remove optional
navigations, and verification must treat null links correctly.
"""

import pytest

from repro.algebra.ast import EntryPointScan
from repro.algebra.printer import render_expr
from repro.engine.remote import RemoteExecutor
from repro.sitegen.movies import MovieConfig, build_movie_site
from repro.web import WebClient
from repro.wrapper.conventions import registry_for_scheme

from tests.planner_reference import eliminate_unused_navigation


@pytest.fixture(scope="module")
def site():
    return build_movie_site(MovieConfig())


@pytest.fixture(scope="module")
def registry(site):
    return registry_for_scheme(site.scheme)


@pytest.fixture(scope="module")
def executor(site, registry):
    return RemoteExecutor(site.scheme, WebClient(site.server), registry)


def movie_nav():
    return (
        EntryPointScan("MovieListPage")
        .unnest("MovieListPage.Movies")
        .follow("MovieListPage.Movies.ToMovie")
    )


class TestGeneration:
    def test_some_movies_are_undirected(self, site):
        assert site.undirected_movies()
        assert len(site.undirected_movies()) < len(site.movies)

    def test_directed_movies_link_back(self, site):
        for director in site.directors:
            for movie in director.movies:
                assert movie.director is director


class TestWrapping:
    def test_null_link_wraps_to_none(self, site, registry):
        movie = site.undirected_movies()[0]
        row = registry.wrap(
            "MoviePage", movie.url, site.server.resource(movie.url).html
        )
        assert row["ToDirector"] is None
        assert row["DirectorName"] == "(independent)"

    def test_present_link_wraps_to_url(self, site, registry):
        movie = next(m for m in site.movies if m.director)
        row = registry.wrap(
            "MoviePage", movie.url, site.server.resource(movie.url).html
        )
        assert row["ToDirector"] == movie.director.url


class TestNavigation:
    def test_following_optional_link_drops_null_rows(self, site, executor):
        expr = movie_nav().follow("MoviePage.ToDirector")
        result = executor.execute(expr)
        directed = [m for m in site.movies if m.director]
        assert len(result.relation) == len(directed)

    def test_null_rows_survive_without_navigation(self, site, executor):
        result = executor.execute(movie_nav())
        assert len(result.relation) == len(site.movies)

    def test_optional_navigation_cost(self, site, executor):
        expr = movie_nav().follow("MoviePage.ToDirector")
        result = executor.execute(expr)
        # 1 list + all movies + the distinct directors actually linked
        assert result.pages == 1 + len(site.movies) + len(site.directors)


class TestRule5OptionalGuard:
    def test_unused_optional_navigation_not_removed(self, site):
        """Removing π_Title(... → ToDirector DirectorPage) would re-admit
        the independent movies — rule 5 requires a non-optional link."""
        expr = movie_nav().follow("MoviePage.ToDirector").project(
            ("Title", "MoviePage.Title")
        )
        out = eliminate_unused_navigation(expr, site.scheme)
        assert "ToDirector" in render_expr(out)

    def test_unused_mandatory_navigation_removed(self, site):
        expr = movie_nav().project(
            ("Title", "MovieListPage.Movies.Title")
        )
        out = eliminate_unused_navigation(expr, site.scheme)
        assert "ToMovie" not in render_expr(out)

    def test_semantics_difference_is_real(self, site, executor):
        """The guard matters: with and without the optional navigation the
        answers differ by exactly the independent movies."""
        with_nav = movie_nav().follow("MoviePage.ToDirector").project(
            ("Title", "MoviePage.Title")
        )
        without_nav = movie_nav().project(("Title", "MoviePage.Title"))
        a = {r["Title"] for r in executor.execute(with_nav).relation}
        b = {r["Title"] for r in executor.execute(without_nav).relation}
        assert b - a == {m.title for m in site.undirected_movies()}


class TestDiscoveryWithNulls:
    def test_constraints_verify_with_null_links(self, site, registry):
        """The MoviePage.DirectorName = DirectorPage.DName constraint is
        genuinely violated by the '(independent)' placeholder? No: null
        links are exempt unless a matching target exists — and no director
        is named '(independent)'."""
        from repro.discovery import crawl_snapshot, verify_scheme

        snapshot = crawl_snapshot(
            site.scheme, WebClient(site.server), registry
        )
        reports = verify_scheme(snapshot)
        for report in reports["link"] + reports["inclusion"]:
            assert report.holds, report

    def test_null_link_with_matching_target_is_violation(self, site, registry):
        """If an undirected movie *names* a real director but has no link,
        the iff breaks — verification must catch it."""
        from repro.discovery import crawl_snapshot, verify_link_constraint
        from repro.sitegen.html_writer import render_page

        movie = site.undirected_movies()[0]
        row = site.movie_tuple(movie)
        row["DirectorName"] = site.directors[0].name  # lie, but no link
        site.server.update(
            movie.url,
            render_page(
                site.scheme.page_scheme("MoviePage"), row, movie.title
            ),
        )
        snapshot = crawl_snapshot(
            site.scheme, WebClient(site.server), registry
        )
        constraint = site.scheme.find_link_constraint(
            "MoviePage", "ToDirector", "DName"
        )
        report = verify_link_constraint(snapshot, constraint)
        assert not report.holds
        # restore the site for other tests (module-scoped fixture)
        site.publish_all()


class TestViewOverOptionalLinks:
    def test_movie_director_view(self, site, registry):
        """The complete MovieDirector extent comes from the director side;
        the movie-side navigation misses nothing because DirectorName is an
        anchor — but movie-side *link navigation* would lose rows."""
        from repro.engine.remote import RemoteExecutor
        from repro.views.external import DefaultNavigation, ExternalRelation

        director_nav = (
            EntryPointScan("DirectorListPage")
            .unnest("DirectorListPage.Directors")
            .follow("DirectorListPage.Directors.ToDirector")
            .unnest("DirectorPage.Filmography")
        )
        rel = ExternalRelation(
            "MovieDirector",
            ("Title", "DName"),
            (
                DefaultNavigation.of(
                    director_nav,
                    {
                        "Title": "DirectorPage.Filmography.Title",
                        "DName": "DirectorPage.DName",
                    },
                ),
            ),
        )
        rel.validate(site.scheme)
        executor = RemoteExecutor(
            site.scheme, WebClient(site.server), registry
        )
        result = executor.execute(rel.navigation_expr())
        got = {
            (r["MovieDirector.Title"], r["MovieDirector.DName"])
            for r in result.relation
        }
        assert got == site.expected_movie_director()
