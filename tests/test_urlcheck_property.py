"""Batched Function 2 ≡ Function 2 one URL at a time.

:meth:`MaterializedStore.check_urls` hands each run of consecutive light
connections to :meth:`WebClient.revalidate` in one call; the reference in
``tests/urlcheck_reference.py`` checks one URL at a time through
``WebClient.head``.  Two identical worlds — same site, same mutations, same
calls — run one each, and after every call they must agree on everything
Function 2 touches: the answer, every access-log counter (simulated seconds
with ``==``), the fetch records and downloaded URLs, the flags and the
``check_missing`` queue, the stored pages and their access dates, and the
sequence of trace events.  ``reconcile()`` must stay empty.

Three site families: a fuzzed catalog (:mod:`repro.sitegen.fuzz`), a
university edited by :class:`~repro.sitegen.SiteMutator`, and a graph
whose page-scheme links to itself, so re-downloading one target can flag a
later target of the same navigation ``new`` or ``missing``.  With faults
on and no retries, a download in the middle of a run raises
``RetriesExhaustedError``; the HEADs before it must already be charged.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tests.urlcheck_reference as reference
from repro.adm import SchemeBuilder, TEXT, link, list_of
from repro.clock import SimClock
from repro.errors import RetriesExhaustedError
from repro.materialized.evaluate import _CheckingProvider
from repro.materialized.store import MaterializedStore, Status
from repro.obs.trace import RecordingTracer
from repro.sitegen import SiteMutator, UniversityConfig
from repro.sitegen.fuzz import FuzzConfig, build_fuzzed_site
from repro.sitegen.html_writer import render_page
from repro.sitegen.mutations import perturb_server
from repro.sitegen.university import build_university_site
from repro.web.client import NO_RETRY, WebClient
from repro.web.server import FaultPolicy, SimulatedWebServer
from repro.wrapper.conventions import registry_for_scheme

GRAPH = "http://graph.example"


class GraphSite:
    """Nodes whose pages link to other nodes' pages (``NodePage`` →
    ``NodePage``), listed on one entry page."""

    def __init__(self, seed: int, nodes: int = 7):
        b = SchemeBuilder("graph")
        b.page("IndexPage").attr(
            "Nodes", list_of(("Name", TEXT), ("ToNode", link("NodePage")))
        ).entry_point(f"{GRAPH}/index.html")
        b.page("NodePage").attr("Name", TEXT).attr("Info", TEXT).attr(
            "Out", list_of(("Label", TEXT), ("ToNode", link("NodePage")))
        )
        self.scheme = b.build()
        self.server = SimulatedWebServer(SimClock())
        rng = random.Random(seed)
        self.info: dict[str, str] = {}
        self.out: dict[str, list[str]] = {}
        for i in range(nodes):
            self.info[f"n{i}"] = f"info {i}"
            self.out[f"n{i}"] = []
        for name in self.out:
            self.out[name] = rng.sample(sorted(self.out), rng.randint(0, 3))
        for name in self.out:
            self.publish(name)
        self.publish_index()

    @staticmethod
    def url(name: str) -> str:
        return f"{GRAPH}/node/{name}.html"

    def publish(self, name: str) -> None:
        row = {
            "Name": name,
            "Info": self.info[name],
            "Out": [{"Label": t, "ToNode": self.url(t)} for t in self.out[name]],
        }
        self.server.publish(
            self.url(name),
            render_page(self.scheme.page_scheme("NodePage"), row, name),
            page_scheme="NodePage",
        )

    def publish_index(self) -> None:
        row = {
            "Nodes": [{"Name": n, "ToNode": self.url(n)} for n in self.info]
        }
        self.server.publish(
            f"{GRAPH}/index.html",
            render_page(self.scheme.page_scheme("IndexPage"), row, "Index"),
            page_scheme="IndexPage",
        )

    def mutate(self, rng: random.Random) -> None:
        names = sorted(self.info)
        name = rng.choice(names)
        kind = rng.choice(["edit", "link", "unlink", "delete", "add", "touch"])
        if kind == "edit":
            self.info[name] += "+"
        elif kind == "link":
            self.out[name].append(rng.choice(names))
        elif kind == "unlink" and self.out[name]:
            self.out[name].pop(rng.randrange(len(self.out[name])))
        elif kind == "delete":
            if self.server.exists(self.url(name)):
                self.server.delete(self.url(name))
            return
        elif kind == "add":
            new = f"n{len(self.info) + rng.randrange(3)}"
            if new in self.info:
                return
            self.info[new], self.out[new] = f"info {new}", [name]
            self.publish(new)
            self.out[name].append(new)
            self.publish_index()
        elif kind == "touch":
            if self.server.exists(self.url(name)):
                self.server.touch(self.url(name))
            return
        if self.server.exists(self.url(name)):
            self.publish(name)


class UniversityMutations:
    """A small university edited through :class:`SiteMutator`."""

    def __init__(self, seed: int):
        self.site = build_university_site(
            UniversityConfig(n_depts=2, n_profs=5, n_courses=9)
        )
        self.scheme, self.server = self.site.scheme, self.site.server
        self.mutator = SiteMutator(self.site)

    def mutate(self, rng: random.Random) -> None:
        site, mutator = self.site, self.mutator
        kind = rng.choice(["rank", "describe", "add", "remove", "move"])
        if kind == "rank":
            mutator.update_prof_rank(rng.choice(site.profs), f"R{rng.random()}")
        elif kind == "describe" and site.courses:
            course = rng.choice(site.courses)
            mutator.update_course_description(course, f"D{rng.random()}")
        elif kind == "add":
            mutator.add_course(rng.choice(site.profs))
        elif kind == "remove" and site.courses:
            mutator.remove_course(rng.choice(site.courses))
        elif kind == "move" and site.courses:
            mutator.move_course(rng.choice(site.courses), rng.choice(site.profs))


class FuzzedMutations:
    """A fuzzed catalog: silent edits, deletions and growth."""

    def __init__(self, seed: int):
        self.site = build_fuzzed_site(FuzzConfig(seed=seed, max_entities=5))
        self.scheme, self.server = self.site.scheme, self.site.server

    def mutate(self, rng: random.Random) -> None:
        kind = rng.choice(["touch", "delete", "grow"])
        if kind == "touch":
            perturb_server(self.server, rng.randrange(10**6), fraction=0.3)
        elif kind == "delete":
            detail = [
                url for url in self.server.urls() if url.count("/") > 3
            ]
            if detail:
                self.server.delete(rng.choice(detail))
        else:
            first = self.site.shapes[0].name
            self.site.grow(first, 1)


SITES = {
    "graph": GraphSite,
    "university": UniversityMutations,
    "fuzzed": FuzzedMutations,
}


class World:
    """One site, one client, one populated store."""

    def __init__(self, kind: str, seed: int, shards: int, partial: bool):
        self.site = SITES[kind](seed)
        scheme, server = self.site.scheme, self.site.server
        self.client = WebClient(server, retry_policy=NO_RETRY)
        retain = None
        if partial:
            retain = sorted(scheme.page_schemes)[:: 2]
        self.store = MaterializedStore(
            scheme,
            self.client,
            registry_for_scheme(scheme),
            retain_schemes=retain,
            shards=shards,
        )
        self.store.populate()
        self.tracer = RecordingTracer()
        self.client.tracer = self.tracer
        #: every URL each page-scheme ever served, plus one never served
        self.known: dict[str, dict[str, None]] = {
            name: {f"{GRAPH}/nowhere/{name}.html": None}
            for name in scheme.page_schemes
        }
        self.learn()

    def learn(self) -> None:
        for url in self.site.server.urls():
            page_scheme = self.site.server.resource(url).page_scheme
            self.known[page_scheme].setdefault(url, None)

    def state(self) -> tuple:
        log, store = self.client.log, self.store
        return (
            log.page_downloads,
            log.light_connections,
            log.failed_requests,
            log.bytes_downloaded,
            log.simulated_seconds,
            log.attempts,
            log.cache_hits,
            log.revalidations,
            log.pages_saved,
            list(log.downloaded_urls),
            list(log.records),
            dict(store.status),
            sorted(store.check_missing),
            [
                (
                    index,
                    p.url,
                    p.page_scheme,
                    p.tuples[p.page_scheme],
                    p.checked_at,
                    p.last_modified,
                )
                for index, shard in enumerate(store.by_shard())
                for p in shard
            ],
            dict(store._transient),
            [(e.name, e.attrs) for e in self.tracer.events()],
        )


def call(world: World, batched: bool, step: tuple):
    """Run one Function 2 call; returns its answer or the error it raised."""
    kind, page_scheme, urls, max_age = step
    store = world.store
    if batched:
        provider = _CheckingProvider(store, max_age=max_age)
        single = store.url_check
    else:
        provider = reference.ReferenceCheckingProvider(store, max_age=max_age)

        def single(page_scheme, url, max_age):
            return reference.url_check(store, page_scheme, url, max_age)

    try:
        if kind == "targets":
            return list(provider.target_tuples(page_scheme, urls).items())
        if kind == "entry":
            return list(provider.entry_tuples([page_scheme]).items())
        return single(page_scheme, urls[0], max_age)
    except RetriesExhaustedError as err:
        return ("raised", type(err).__name__, str(err))


def draw_step(rng: random.Random, world: World) -> tuple:
    schemes = sorted(world.known)
    entries = sorted(world.store.scheme.entry_points)
    max_age = rng.choice([None, None, 0, 2])
    kind = rng.choice(["targets"] * 4 + ["entry", "single"])
    if kind == "entry":
        return kind, rng.choice(entries), (), max_age
    page_scheme = rng.choice(schemes)
    known = list(world.known[page_scheme])
    urls = rng.sample(known, rng.randint(1, len(known)))
    return kind, page_scheme, tuple(urls), max_age


def replay(kind: str, seed: int, shards: int, partial: bool, faults: bool):
    batched = World(kind, seed, shards, partial)
    literal = World(kind, seed, shards, partial)
    assert batched.state() == literal.state()
    if faults:
        for world in (batched, literal):
            world.site.server.fault_policy = FaultPolicy(0.25, seed=seed)
    rng = random.Random(seed)
    for _ in range(4):
        for _ in range(rng.randint(0, 3)):
            mutation = rng.randrange(10**6)
            for world in (batched, literal):
                world.site.mutate(random.Random(mutation))
                world.learn()
        for world in (batched, literal):
            world.store.reset_status()
        for _ in range(rng.randint(1, 6)):
            step = draw_step(rng, batched)
            assert call(batched, True, step) == call(literal, False, step), step
            assert batched.state() == literal.state(), step
            assert batched.client.log.reconcile() == []
        if rng.random() < 0.3:  # the site manager edits mid-query
            mutation = rng.randrange(10**6)
            for world in (batched, literal):
                world.site.mutate(random.Random(mutation))
                world.learn()


class TestBatchedFunctionTwo:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        kind=st.sampled_from(sorted(SITES)),
        seed=st.integers(0, 10**6),
        shards=st.sampled_from([1, 2]),
        partial=st.booleans(),
        faults=st.booleans(),
    )
    def test_matches_the_one_url_reference(
        self, kind, seed, shards, partial, faults
    ):
        replay(kind, seed, shards, partial, faults)


def graph_worlds(**out):
    """Two identical graph worlds whose node edges are ``out`` (others
    keep none), populated."""
    worlds = []
    for _ in range(2):
        world = World("graph", 0, 1, False)
        site = world.site
        for name in site.out:
            site.out[name] = list(out.get(name, []))
            site.publish(name)
        world.store.populate()
        world.client.log.reset()
        world.tracer.orphan_events.clear()
        worlds.append(world)
    return worlds


def both(worlds, step):
    answers = [call(world, index == 0, step) for index, world in enumerate(worlds)]
    assert answers[0] == answers[1]
    assert worlds[0].state() == worlds[1].state()
    assert worlds[0].client.log.reconcile() == []
    return answers[0]


class TestRunBoundaries:
    def test_a_redownload_reflags_later_targets_of_its_run(self):
        """n1 is stale and lost its link to n3 and gained one to n9: its
        re-download flags n3 missing (deferred, no HEAD) and n9 new
        (downloaded, no HEAD) although both follow it in the same list."""
        worlds = graph_worlds(n1=["n3"])
        for world in worlds:
            site = world.site
            site.info["n9"], site.out["n9"] = "info n9", []
            site.publish("n9")
            site.out["n1"] = ["n9"]
            site.publish("n1")
            world.store.reset_status()
        urls = tuple(GraphSite.url(n) for n in ["n0", "n1", "n3", "n9", "n2"])
        answer = both(worlds, ("targets", "NodePage", urls, None))
        store, log = worlds[0].store, worlds[0].client.log
        assert [url for url, _ in answer] == [urls[0], urls[1], urls[3], urls[4]]
        assert store.status_of(urls[2]) is Status.MISSING
        assert urls[2] in store.check_missing
        assert log.light_connections == 3  # n0, n1, n2 — not n3, not n9
        assert log.downloaded_urls == [urls[1], urls[3]]

    def test_runs_are_charged_once_each(self):
        worlds = graph_worlds()
        for world in worlds:
            world.store.reset_status()
        charges = []
        client = worlds[0].client
        original = client._charge_heads

        def counting(urls, makespan=None):
            charges.append(len(urls))
            original(urls, makespan)

        client._charge_heads = counting
        urls = tuple(GraphSite.url(f"n{i}") for i in range(7))
        both(worlds, ("targets", "NodePage", urls, None))
        assert charges == [7]

    def test_a_failed_download_mid_run_keeps_the_heads_before_it(self):
        worlds = graph_worlds()
        for world in worlds:
            world.site.info["n2"] += " revised"
            world.site.publish("n2")
            world.site.server.fault_policy = FaultPolicy(0.999, seed=1)
            world.store.reset_status()
        urls = tuple(GraphSite.url(f"n{i}") for i in range(5))
        answer = both(worlds, ("targets", "NodePage", urls, None))
        assert answer[0] == "raised" and answer[1] == "RetriesExhaustedError"
        store, log = worlds[0].store, worlds[0].client.log
        assert log.light_connections == 3  # n0, n1 fresh; n2 stale
        assert log.page_downloads == 0 and log.failed_requests == 1
        assert store.status_of(urls[1]) is Status.CHECKED
        assert store.status_of(urls[2]) is Status.NONE
        assert store.status_of(urls[3]) is Status.NONE

    @pytest.mark.parametrize("max_age", [None, 0, 5])
    def test_checked_and_trusted_urls_split_runs(self, max_age):
        worlds = graph_worlds()
        urls = tuple(GraphSite.url(f"n{i}") for i in range(6))
        for world in worlds:
            world.store.reset_status()
        both(worlds, ("targets", "NodePage", urls[1:4:2], max_age))
        both(worlds, ("targets", "NodePage", urls + urls[:2], max_age))
