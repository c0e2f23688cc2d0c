"""Tests for the one site walk, :func:`repro.adm.links.crawl`.

The references are the loops ``crawl`` replaced, kept here as they were:
the FIFO queue of ``SiteExplorer.explore`` and ``crawl_snapshot``, and the
depth-first stack of ``MaterializedStore.populate`` and ``full_refresh``.
``crawl`` must visit the FIFO loop's sequence exactly (breadth-first by
queue and by level are the same order) and give the depth-first loops'
results; and, unlike the loops that followed a ``set`` of links, it must
not depend on the interpreter's string hashing.  The server's warm-up
(a partial store populated into the environment's cache) is held to the
cache-filling crawl it replaced, ``warm_cache``, kept here too.
"""

import json
import os
import subprocess
import sys
import threading
from collections import deque
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.adm.builder import SchemeBuilder
from repro.adm.links import crawl, iter_outlinks, outlink_set
from repro.adm.webtypes import TEXT, link
from repro.engine.session import QuerySession
from repro.errors import ResourceNotFound
from repro.materialized import WorkloadQuery, advise
from repro.materialized.maintenance import full_refresh, process_check_missing
from repro.materialized.store import MaterializedStore
from repro.options import QueryRequest
from repro.server import QueryServer
from repro.sitegen.bibliography import BibliographyConfig
from repro.sitegen.movies import MovieConfig
from repro.sitegen.mutations import SiteMutator
from repro.sitegen.university import UniversityConfig
from repro.sites import bibliography, fuzzed, movies, university
from repro.web.cache import NO_CACHE
from repro.web.client import FetchConfig, WebClient

ROOT = Path(__file__).resolve().parent.parent


def fifo_reference(scheme, wrap_page, max_pages=None):
    """The FIFO crawl ``explore`` and ``crawl_snapshot`` ran: the
    ``(page_scheme, url)`` pairs it visited, in order."""
    queue = deque((ep.scheme, ep.url) for ep in scheme.entry_points.values())
    visited: set[str] = set()
    order = []
    while queue:
        if max_pages is not None and len(visited) >= max_pages:
            break
        page_scheme, url = queue.popleft()
        if url in visited:
            continue
        visited.add(url)
        order.append((page_scheme, url))
        plain = wrap_page(page_scheme, url)
        if plain is None:
            continue
        for target_scheme, target_url in iter_outlinks(scheme, page_scheme, plain):
            if target_url not in visited:
                queue.append((target_scheme, target_url))
    return order


def depth_first_populate(store):
    """``MaterializedStore.populate`` as a depth-first stack."""
    frontier = [(ep.scheme, ep.url) for ep in store.scheme.entry_points.values()]
    visited: set[str] = set()
    while frontier:
        page_scheme, url = frontier.pop()
        if url in visited:
            continue
        visited.add(url)
        plain = store._download(page_scheme, url)
        if plain is None:
            continue
        for link_url, target in outlink_set(store.scheme, page_scheme, plain):
            if link_url not in visited:
                frontier.append((target, link_url))
    store.reset_status()
    return store.page_count()


def depth_first_full_refresh(store):
    """``full_refresh`` with its depth-first re-crawl."""
    store.reset_status()
    before_downloads = store.client.log.page_downloads
    before_count = store.page_count()
    stored_urls = {
        page_scheme: list(store.tuples_of(page_scheme))
        for page_scheme in store.scheme.page_schemes
    }
    for page_scheme, urls in stored_urls.items():
        store.check_urls(page_scheme, urls)
    frontier = [(ep.scheme, ep.url) for ep in store.scheme.entry_points.values()]
    visited: set[str] = set()
    while frontier:
        page_scheme, url = frontier.pop()
        if url in visited:
            continue
        visited.add(url)
        plain = store.url_check(page_scheme, url)
        if plain is None:
            continue
        for link_url, target in outlink_set(store.scheme, page_scheme, plain):
            if link_url not in visited:
                frontier.append((target, link_url))
    result = process_check_missing(store)
    return {
        "checked": len(visited),
        "redownloaded": store.client.log.page_downloads - before_downloads,
        "added": max(0, store.page_count() - before_count),
        "removed": result["deleted"],
    }


def _wrapper_of(env):
    """Oracle page access: the tuple of a live page, None for a dead one
    (memoized, so the reference and ``crawl`` wrap each page once)."""
    memo: dict = {}

    def wrap_page(page_scheme, url):
        if url not in memo:
            try:
                resource = env.site.server.resource(url)
            except ResourceNotFound:
                memo[url] = None
            else:
                memo[url] = env.registry.wrap(page_scheme, url, resource.html)
        return memo[url]

    return wrap_page


def _with_dead_pages():
    """A university with a department and two professors deleted: their
    links are dead ends that still count against ``max_pages``."""
    env = university(UniversityConfig(n_depts=3, n_profs=12, n_courses=20))
    for url in (env.site.depts[1].url, env.site.profs[0].url, env.site.profs[5].url):
        env.site.server.delete(url)
    return env


SITES = {
    "university": lambda: university(),
    "bibliography": lambda: bibliography(BibliographyConfig()),
    "movies": lambda: movies(MovieConfig()),
    "fuzzed-3": lambda: fuzzed(3),
    "fuzzed-17": lambda: fuzzed(17),
    "fuzzed-29": lambda: fuzzed(29),
    "dead pages": _with_dead_pages,
}


@pytest.fixture(scope="module", params=sorted(SITES))
def site(request):
    env = SITES[request.param]()
    return env, _wrapper_of(env)


@pytest.mark.parametrize("max_pages", [None, 1, 7, 50])
def test_crawl_visits_the_fifo_sequence(site, max_pages):
    env, wrap_page = site
    visited = []

    def fetch(level):
        visited.extend(level)
        return {url: wrap_page(page_scheme, url) for page_scheme, url in level}

    count = crawl(env.scheme, fetch, max_pages)
    expected = fifo_reference(env.scheme, wrap_page, max_pages)
    assert visited == expected
    assert count == len(expected)
    if max_pages is None:
        # every live page of these sites is reachable from an entry point
        live = {url for _scheme, url in visited if wrap_page(_scheme, url)}
        assert live == set(env.site.server.urls())


def test_a_url_is_visited_once_under_the_scheme_that_first_reached_it():
    """``shared`` is linked as a T from A and as a U from B, one level
    down: it is fetched once, as a T; ``dead`` is a dead end."""
    b = SchemeBuilder()
    b.page("T").attr("X", TEXT)
    b.page("U").attr("X", TEXT)
    b.page("A").attr("L", link("T"))
    b.page("B").attr("L", link("U"))
    home = b.page("Home").attr("ToA", link("A")).attr("ToB", link("B"))
    home.attr("Dead", link("T")).entry_point("http://x/home")
    scheme = b.build()
    pages = {
        "http://x/home": {
            "ToA": "http://x/a", "ToB": "http://x/b", "Dead": "http://x/dead"
        },
        "http://x/a": {"L": "http://x/shared"},
        "http://x/b": {"L": "http://x/shared"},
        "http://x/shared": {"X": "x"},
    }
    levels = []

    def wrap_page(_scheme, url):
        return pages.get(url)

    def fetch(level):
        levels.append(list(level))
        return {url: wrap_page(page_scheme, url) for page_scheme, url in level}

    assert crawl(scheme, fetch) == 5
    assert levels == [
        [("Home", "http://x/home")],
        [("A", "http://x/a"), ("B", "http://x/b"), ("T", "http://x/dead")],
        [("T", "http://x/shared")],
    ]
    assert fifo_reference(scheme, wrap_page) == [p for lv in levels for p in lv]
    del levels[:]
    assert crawl(scheme, fetch, max_pages=3) == 3
    assert levels == [
        [("Home", "http://x/home")], [("A", "http://x/a"), ("B", "http://x/b")]
    ]
    del levels[:]
    assert crawl(scheme, fetch, max_pages=0) == 0
    assert levels == []


def _university():
    return university(UniversityConfig(n_depts=3, n_profs=20, n_courses=40))


def _store(env, **kwargs):
    client = WebClient(env.site.server)
    return MaterializedStore(env.scheme, client, env.registry, **kwargs)


def _stored(store):
    return {
        page_scheme: store.tuples_of(page_scheme)
        for page_scheme in store.scheme.page_schemes
    }


@pytest.mark.parametrize("retain", [None, ("DeptPage", "ProfPage")])
def test_populate_stores_what_the_depth_first_loop_stored(retain):
    env = _university()
    walked = _store(env, retain_schemes=retain)
    stacked = _store(env, retain_schemes=retain)
    assert walked.populate() == depth_first_populate(stacked)
    assert _stored(walked) == _stored(stacked)
    assert walked.client.log.page_downloads == stacked.client.log.page_downloads
    assert walked.client.log.page_downloads == len(env.site.server)


def test_populate_stores_pages_in_crawl_order():
    env = _university()
    store = _store(env)
    wrap_page = _wrapper_of(env)
    order = []

    def fetch(level):
        order.extend(level)
        return {url: wrap_page(page_scheme, url) for page_scheme, url in level}

    crawl(env.scheme, fetch)
    store.populate()
    for page_scheme in store.scheme.page_schemes:
        urls = list(store.tuples_of(page_scheme))
        assert urls == [url for ps, url in order if ps == page_scheme]


def _mutate(env):
    mutator = SiteMutator(env.site)
    mutator.remove_prof(env.site.profs[0])
    mutator.add_prof(env.site.depts[0].name)
    for course in env.site.courses[:3]:
        mutator.remove_course(course)
    for prof in env.site.profs[:3]:
        mutator.add_course(prof)
    mutator.revise_courses(0.25)


@pytest.mark.parametrize("retain", [None, ("DeptPage", "ProfPage")])
def test_full_refresh_returns_what_the_depth_first_loop_returned(retain):
    results = []
    for refresh in (full_refresh, depth_first_full_refresh):
        env = _university()
        store = _store(env, retain_schemes=retain)
        store.populate()
        _mutate(env)
        log = store.client.log
        results.append((refresh(store), _stored(store), log.light_connections))
    walked, stacked = results
    assert walked == stacked
    assert walked[0]["redownloaded"] > 0
    # the refreshed store is what populating the edited site stores
    fresh = _store(env, retain_schemes=retain)
    fresh.populate()
    assert walked[1] == _stored(fresh)


def _workload(env):
    queries = env.site.queries()
    return [
        WorkloadQuery(QueryRequest(query=queries[name]), frequency=6 - rank)
        for rank, name in enumerate(sorted(queries))
    ]


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_warm_up_warms_and_transits_the_reachable_pages(seed):
    """Warmed pages are the reachable live pages of the chosen schemes (each
    under the scheme it is first reached by), transit pages the others; the
    cache holds exactly the warmed ones."""
    env = fuzzed(seed)
    report = QueryServer(env, start=False).warm_up(
        _workload(env), mutation_rate=0.1
    )
    chosen = report.advisor.materialize_set()
    wrap_page = _wrapper_of(fuzzed(seed))
    live = [
        (page_scheme, url)
        for page_scheme, url in fifo_reference(env.scheme, wrap_page)
        if wrap_page(page_scheme, url) is not None
    ]
    warmed = {url for page_scheme, url in live if page_scheme in chosen}
    assert report.warmed_pages == len(warmed)
    assert report.transit_pages == len(live) - len(warmed)
    assert set(env.page_cache.urls()) == warmed


def warm_cache(env, workload, *, mutation_rate, workers=4):
    """The server's warm-up as it was before it became a partial store's
    ``populate``: each crawl level fetched as two ``workers``-lane batches,
    the chosen schemes' pages through the environment's cache and the
    others around it (its span and metric left out)."""
    report = advise(env, workload, mutation_rate=mutation_rate)
    chosen = report.materialize_set()
    cache = env.page_cache if env.page_cache is not None else env.enable_cache()
    base = env.client
    client = WebClient(base.server, base.network, base.retry_policy, cache)
    config = FetchConfig(max_workers=workers)
    warmed = 0
    transit = 0

    def fetch(level):
        nonlocal warmed, transit
        chosen_urls = [u for ps, u in level if ps in chosen]
        transit_urls = [u for ps, u in level if ps not in chosen]
        resources = client.get_batch(chosen_urls, config=config)
        warmed += sum(r is not None for r in resources.values())
        passing = client.get_batch(transit_urls, config=config, cache=NO_CACHE)
        transit += sum(r is not None for r in passing.values())
        resources.update(passing)
        session = QuerySession(client, env.registry)
        session.seed_resources(resources)
        return {url: session.fetch_tuple(ps, url) for ps, url in level}

    crawl(env.scheme, fetch)
    return {
        "warmed_pages": warmed,
        "transit_pages": transit,
        "light_connections": client.log.light_connections,
        "seconds": client.log.simulated_seconds,
    }


UNIVERSITY_QUERIES = [
    "SELECT DName FROM Dept",
    "SELECT CName, Description FROM Course",
    "SELECT Professor.PName, Rank FROM Professor, ProfDept "
    "WHERE Professor.PName = ProfDept.PName "
    "AND ProfDept.DName = 'Computer Science'",
]

WARM_SITES = {
    "fuzzed-3": lambda: fuzzed(3),
    "fuzzed-17": lambda: fuzzed(17),
    "fuzzed-29": lambda: fuzzed(29),
    "university-3-20-40": _university,
}


def _warm_workload(env):
    if hasattr(env.site, "queries"):
        return _workload(env)
    return [
        WorkloadQuery(QueryRequest(query=sql), frequency=3 - rank)
        for rank, sql in enumerate(UNIVERSITY_QUERIES)
    ]


def _cached(env):
    cache = env.page_cache
    return [
        (url, cache.peek(url).last_modified, cache.peek(url).tuples)
        for url in cache.urls()
    ]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("site_name", sorted(WARM_SITES))
def test_warm_up_fills_the_cache_warm_cache_filled(site_name, workers):
    """Same counts, the same cache (URLs in order, dates, tuples), and
    no longer: one batch per level can only shorten the k-lane makespan,
    and one lane is the same fetch times summed in level order instead of
    chosen-then-transit order (equal up to float reassociation)."""
    old_env, new_env = WARM_SITES[site_name](), WARM_SITES[site_name]()
    old = warm_cache(
        old_env, _warm_workload(old_env), mutation_rate=0.1, workers=workers
    )
    new = QueryServer(new_env, start=False).warm_up(
        _warm_workload(new_env), mutation_rate=0.1, workers=workers
    )
    assert new.warmed_pages > 0
    assert new.warmed_pages == old["warmed_pages"]
    assert new.transit_pages == old["transit_pages"]
    assert new.light_connections == old["light_connections"]
    assert _cached(new_env) == _cached(old_env)
    if workers == 1:
        assert new.seconds == pytest.approx(old["seconds"], rel=1e-12, abs=0)
    else:
        assert new.seconds <= old["seconds"]



@contextmanager
def served_gets(server):
    """Log the URL of every GET ``server`` serves inside the block."""
    gets: list[str] = []
    inner = server.serve

    def serve(url):
        gets.append(url)
        return inner(url)

    server.serve = serve
    try:
        yield gets
    finally:
        del server.serve


@pytest.mark.parametrize(
    "seed, warmed, transit", [(3, 15, 0), (17, 17, 7), (29, 19, 5)]
)
def test_a_second_warm_up_revalidates_what_the_first_stored(seed, warmed, transit):
    """On an unchanged site the second warm-up downloads only the transit
    pages and opens one light connection per warmed page; the cache is
    the first warm-up's."""
    env = fuzzed(seed)
    server = QueryServer(env, start=False)
    first = server.warm_up(_workload(env), mutation_rate=0.1)
    cached = _cached(env)
    with served_gets(env.site.server) as gets:
        second = server.warm_up(_workload(env), mutation_rate=0.1)
    assert (first.warmed_pages, first.transit_pages) == (warmed, transit)
    assert (second.warmed_pages, second.transit_pages) == (warmed, transit)
    assert len(gets) == transit
    assert not set(gets) & set(env.page_cache.urls())
    assert second.light_connections == warmed
    assert _cached(env) == cached


def _edit(site):
    """Five edits, a removed course among them."""
    mutator = SiteMutator(site)
    mutator.update_course_description(site.courses[0], "Revised.")
    mutator.update_prof_rank(site.profs[1], "Emeritus")
    mutator.add_course(site.profs[2])
    mutator.remove_course(site.courses[3])
    mutator.add_prof(site.depts[0].name)


def test_a_second_warm_up_downloads_what_changed():
    """After edits the second warm-up's GETs are its transit pages plus the
    chosen pages that changed or newly appeared."""
    env = _university()
    server = QueryServer(env, start=False)
    workload = _warm_workload(env)
    server.warm_up(workload, mutation_rate=0.1)
    before = {url: modified for url, modified, _ in _cached(env)}
    site = env.site
    _edit(site)
    with served_gets(site.server) as gets:
        second = server.warm_up(workload, mutation_rate=0.1)
    after = {url: modified for url, modified, _ in _cached(env)}
    changed = {url for url, modified in after.items() if before.get(url) != modified}
    assert changed
    chosen_gets = [url for url in gets if url in after]
    assert sorted(chosen_gets) == sorted(changed)
    assert len(gets) - len(chosen_gets) == second.transit_pages > 0
    # one HEAD per held page the crawl still reaches, none for a new one
    new = after.keys() - before.keys()
    assert second.light_connections == second.warmed_pages - len(new)


def test_a_second_warm_up_drops_what_the_site_no_longer_serves():
    """After edits that remove a course, the second warm-up's cache is a
    fresh warm-up's over the edited site: the vanished page is gone."""
    env = _university()
    server = QueryServer(env, start=False)  # warming needs no worker
    server.warm_up(_warm_workload(env), mutation_rate=0.1)
    _edit(env.site)
    server.warm_up(_warm_workload(env), mutation_rate=0.1)
    fresh = _university()
    _edit(fresh.site)
    QueryServer(fresh, start=False).warm_up(
        _warm_workload(fresh), mutation_rate=0.1
    )
    assert sorted(_cached(env)) == sorted(_cached(fresh))
    served = set(env.site.server.urls())
    assert all(url in served for url, _, _ in _cached(env))


def test_a_warm_up_without_workers_leaves_the_thread_count():
    """``start=False`` is all a warm-up needs: the crawl's own pool is
    joined before it returns, and no query worker is left running."""
    env = fuzzed(17)
    before = threading.active_count()
    QueryServer(env, start=False).warm_up(
        _workload(env), mutation_rate=0.1, workers=4
    )
    assert threading.active_count() == before


_PROBE = """
import dataclasses, json
from repro.materialized import WorkloadQuery
from repro.materialized.maintenance import consistency_report
from repro.materialized.store import MaterializedStore
from repro.options import QueryRequest
from repro.server import QueryServer
from repro.sitegen.mutations import SiteMutator
from repro.sitegen.university import UniversityConfig
from repro.sites import fuzzed, university
from repro.web.client import WebClient

env = fuzzed(17)
queries = env.site.queries()
workload = [
    WorkloadQuery(QueryRequest(query=queries[name]), frequency=6 - rank)
    for rank, name in enumerate(sorted(queries))
]
report = QueryServer(env).warm_up(workload, mutation_rate=0.1)

uni = university(UniversityConfig(n_depts=3, n_profs=20, n_courses=40))


def store(**kwargs):
    client = WebClient(uni.site.server)
    return MaterializedStore(uni.scheme, client, uni.registry, **kwargs)


full = store()
full.populate()
partial = store(retain_schemes=("DeptPage", "ProfPage"))
partial.populate()
mutator = SiteMutator(uni.site)
for course in uni.site.courses[:4]:
    mutator.remove_course(course)
for prof in uni.site.profs[:4]:
    mutator.add_course(prof)
drift = consistency_report(partial)
print(json.dumps({
    "warmup": repr(dataclasses.asdict(report)),
    "populate": [[page.page_scheme, page.url] for page in full.entries()],
    "populate_s": full.client.log.simulated_seconds,
    "dangling": drift.dangling_links,
    "unstored": drift.unstored_link_targets,
}))
"""


def test_crawls_repeat_under_any_string_hash_seed():
    """The warm-up report (every field), the populated store's page order
    and a partial store's drift lists are the same in two interpreters
    whose string hashing differs."""
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", _PROBE],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    first, second = runs
    assert first["unstored"]  # the drift lists are not trivially equal
    assert first == second
