"""The batched fetch path ≡ the page cache one URL at a time.

``WebClient.get`` and ``get_batch`` resolve a batch's cached URLs with one
bulk read, revalidate them in runs and account the batch once; the
reference in ``tests/cache_reference.py`` serves and accounts one URL at a
time.  Two identical worlds — same university, same edits, same queries
and raw client calls — run one each, and after every step they must agree
on the answer, every access-log counter (simulated seconds with ``==``),
the fetch records and downloaded URLs, the cache statistics, the cached
URLs in LRU order, the metrics series the step wrote and the sequence of
trace events.  ``reconcile()`` must stay empty in both.

Cache ``off`` / ``per_query`` / ``cross_query`` at 1 and 3 shards, 1 and 4
fetch workers, a capacity small enough to evict, staged and pipelined
execution, with transient faults or without, and the site edited between
steps by :class:`~repro.sitegen.SiteMutator` (edits, additions, removals).
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

import tests.cache_reference as reference
from repro.engine.remote import RemoteExecutor
from repro.errors import WebError
from repro.obs.metrics import METRICS
from repro.obs.trace import NULL_TRACER, RecordingTracer
from repro.options import QueryOptions
from repro.sitegen import SiteMutator, UniversityConfig
from repro.sitegen.university import build_university_site
from repro.sites import site_env, university_view
from repro.web.client import FetchConfig, WebClient
from repro.web.server import FaultPolicy

MISSING = "http://nowhere.example/gone.html"


class World:
    """One small university queried through a client of ``client_class``."""

    def __init__(self, client_class, policy, shards, capacity, workers):
        self.site = build_university_site(
            UniversityConfig(n_depts=2, n_profs=6, n_courses=12)
        )
        env = site_env(self.site, university_view(self.site.scheme))
        client = client_class(self.site.server)
        env.client = client
        env.executor = RemoteExecutor(
            env.scheme,
            client,
            env.registry,
            planner=env.planner,
            cost_model=env.cost_model,
        )
        if policy != "off":
            env.enable_cache(capacity=capacity, policy=policy, shards=shards)
        self.env, self.client = env, client
        self.policy, self.workers = policy, workers
        self.mutator = SiteMutator(self.site)

    def queries(self) -> list[str]:
        depts = [dept.name for dept in self.site.depts]
        return [
            "SELECT PName, Rank FROM Professor",
            "SELECT CName, Description FROM Course WHERE Session = 'Fall'",
            *(
                "SELECT Professor.PName, email FROM Course, CourseInstructor, "
                "Professor, ProfDept WHERE Course.CName = CourseInstructor.CName"
                " AND CourseInstructor.PName = Professor.PName AND "
                "Professor.PName = ProfDept.PName AND ProfDept.DName = "
                f"'{dept}' AND Type = 'Graduate'"
                for dept in depts
            ),
            *(
                "SELECT Professor.PName, Rank FROM Professor, ProfDept WHERE "
                "Professor.PName = ProfDept.PName AND ProfDept.DName = "
                f"'{dept}'"
                for dept in depts
            ),
        ]

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

    def step(self, step: tuple):
        """Run one step; returns its answer, or the error it raised."""
        kind, arg, traced, execution = step
        tracer = RecordingTracer() if traced else None
        config = FetchConfig(max_workers=self.workers)
        try:
            if kind == "query":
                options = QueryOptions(
                    cache=self.policy,
                    fetch=config,
                    execution=execution,
                    tracer=tracer,
                )
                result = self.env.query(self.queries()[arg], options=options)
                return ("rows", result.relation.to_table()), tracer
            if tracer is not None:
                self.client.tracer = tracer
            cache = self.env.page_cache
            if kind == "get":
                resource = self.client.get(arg, cache=cache)
                return ("page", resource.url, resource.html), tracer
            if kind == "batch":
                pages = self.client.get_batch(arg, config=config, cache=cache)
                return (
                    "pages",
                    [(url, p and p.html) for url, p in pages.items()],
                ), tracer
            cache.begin_query()
            return ("begin",), tracer
        except WebError as err:
            return ("raised", type(err).__name__, str(err)), tracer
        finally:
            self.client.tracer = NULL_TRACER

    def state(self) -> tuple:
        log, cache = self.client.log, self.env.page_cache
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
            None if cache is None else (repr(cache.stats), cache.urls()),
            None if cache is None else cache.scheme_counts(),
        )


def events(tracer) -> list:
    if tracer is None:
        return []
    spans = [
        (span.name, span.kind, [(e.name, e.attrs) for e in span.events])
        for span in tracer.spans()
    ]
    return spans + [(e.name, e.attrs) for e in tracer.orphan_events]


def draw_step(rng: random.Random, world: World) -> tuple:
    kind = rng.choice(["query"] * 5 + ["get", "batch", "batch", "begin"])
    traced = rng.random() < 0.3
    execution = rng.choice(["staged", "pipelined"])
    urls = sorted(world.site.server.urls()) + [MISSING]
    if kind == "query":
        arg = rng.randrange(len(world.queries()))
    elif kind == "get":
        arg = rng.choice(urls)
    elif kind == "batch":
        arg = tuple(rng.choice(urls) for _ in range(rng.randint(1, 12)))
    else:
        arg = None
        if world.env.page_cache is None:
            kind, arg = "get", rng.choice(urls)
    return kind, arg, traced, execution


def replay(seed, policy, shards, capacity, workers, faults):
    batched = World(WebClient, policy, shards, capacity, workers)
    literal = World(reference.PerUrlClient, policy, shards, capacity, workers)
    if faults:
        for world in (batched, literal):
            world.site.server.fault_policy = FaultPolicy(0.2, seed=seed)
    rng = random.Random(seed)
    for _ in range(10):
        for _ in range(rng.randint(0, 2)):
            mutation = rng.randrange(10**6)
            for world in (batched, literal):
                world.mutate(random.Random(mutation))
        step = draw_step(rng, batched)
        outputs = []
        for world in (batched, literal):
            # the step's fetches, read through a mark of our own: how far
            # back the log holds entries depends on when older marks die
            mark = world.client.log.snapshot()
            with METRICS.isolated():
                answer, tracer = world.step(step)
                fetched = world.client.log.delta(mark)
                outputs.append((
                    answer,
                    fetched.downloaded_urls,
                    fetched.records,
                    METRICS.snapshot(),
                    events(tracer),
                ))
        for mine, theirs in zip(*outputs):
            assert mine == theirs, step
        assert batched.state() == literal.state(), step
        assert batched.client.log.reconcile() == []
        assert literal.client.log.reconcile() == []


class TestBatchedCache:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10**6),
        policy=st.sampled_from(["off", "per_query", "cross_query"]),
        shards=st.sampled_from([1, 3]),
        capacity=st.sampled_from([6, 4096]),
        workers=st.sampled_from([1, 4]),
        faults=st.booleans(),
    )
    def test_matches_the_one_url_reference(
        self, seed, policy, shards, capacity, workers, faults
    ):
        replay(seed, policy, shards, capacity, workers, faults)

    def test_a_stale_page_mid_batch_resumes_the_run(self):
        """Three cached pages, the middle one edited: one batch opens three
        light connections, re-downloads only the middle page and serves
        the other two from the cache — in both worlds alike."""
        worlds = [
            World(cls, "cross_query", 1, 4096, 1)
            for cls in (WebClient, reference.PerUrlClient)
        ]
        for world in worlds:
            profs = sorted(world.site.profs, key=lambda p: p.name)[:3]
            urls = tuple(prof.url for prof in profs)
            cache = world.env.page_cache
            world.client.get_batch(urls, cache=cache)
            cache.begin_query()
            world.mutator.update_prof_rank(profs[1], "Emeritus")
            world.client.log.reset()
            world.client.get_batch(urls, cache=cache)
        states = [world.state() for world in worlds]
        assert states[0] == states[1]
        log = worlds[0].client.log
        assert log.light_connections == 3
        assert log.revalidations == 2
        assert log.downloaded_urls == [urls[1]]
