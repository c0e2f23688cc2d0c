"""The five workloads: sites, seeded query streams, mutations, ground truth.

Everything the program under test sees is generated here from ``--seed``:
SQL strings, the order they arrive in, and the site manager's edits.  The
untraced pass drives the system only through ``env.query`` /
``MaterializedEngine.query`` / ``QueryServer.submit`` with
``QueryOptions(cache=...)`` — no execution mode, no fetch pool, no legacy
keyword — so it measures what a caller gets by default.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from repro import (
    MaterializedEngine,
    MaterializedStore,
    QueryOptions,
    QueryRequest,
    QueryServer,
    ServerConfig,
    SiteMutator,
    UniversityConfig,
    batch_refresh,
    build_university_site,
    university_view,
)
from repro.sitegen.mutations import perturb_server
from repro.sites import site_env

SITES = {
    "uni_small": UniversityConfig(),  # 79 pages, the paper's 3/20/50
    "uni_medium": UniversityConfig(n_depts=8, n_profs=80, n_courses=200),
    "uni_large": UniversityConfig(n_depts=16, n_profs=320, n_courses=800),
}

#: Closed-loop clients (and server workers) of ``server_mix``.
CLIENTS = min(2, os.cpu_count() or 1)

# --------------------------------------------------------------------- #
# queries and their ground truth
# --------------------------------------------------------------------- #

#: External relation → (attribute names, the site's model-record oracle).
RELATIONS = {
    "Dept": (("DName", "Address"), "expected_dept"),
    "Professor": (("PName", "Rank", "email"), "expected_professor"),
    "Course": (
        ("CName", "Session", "Description", "Type"),
        "expected_course",
    ),
    "CourseInstructor": (("CName", "PName"), "expected_course_instructor"),
    "ProfDept": (("PName", "DName"), "expected_prof_dept"),
}


def _rel(ref: str) -> str:
    return ref.split(".", 1)[0]


@dataclass(frozen=True)
class Query:
    """One conjunctive query, kept structured so the same object yields the
    SQL text the system receives *and* the answer the site's model records
    imply — the reference never goes through the parser, planner, wrapper
    or any cache.  References are written ``Relation.attr``."""

    select: tuple[str, ...]
    rels: tuple[str, ...]
    joins: tuple[tuple[str, str], ...] = ()
    where: tuple[tuple[str, str], ...] = ()

    @cached_property
    def sql(self) -> str:
        conds = [f"{a} = {b}" for a, b in self.joins]
        conds += [f"{ref} = '{value}'" for ref, value in self.where]
        where = f" WHERE {' AND '.join(conds)}" if conds else ""
        return (
            f"SELECT {', '.join(self.select)} "
            f"FROM {', '.join(self.rels)}{where}"
        )

    def rows_of(self, relation) -> frozenset:
        """A result relation as a set of tuples in ``select`` order."""
        names = [ref.split(".", 1)[1] for ref in self.select]
        return frozenset(
            tuple(row[name] for name in names) for row in relation.rows
        )


class GroundTruth:
    """Reference answers from the site's model records (the oracle the
    repo's own tests use).  ``invalidate`` after every mutation pass."""

    def __init__(self, site):
        self.site = site
        self._base: dict[str, list[dict]] = {}
        self._answers: dict[Query, frozenset] = {}

    def invalidate(self) -> None:
        self._base.clear()
        self._answers.clear()

    def _rows(self, rel: str) -> list[dict]:
        rows = self._base.get(rel)
        if rows is None:
            attrs, oracle = RELATIONS[rel]
            refs = [f"{rel}.{attr}" for attr in attrs]
            rows = self._base[rel] = [
                dict(zip(refs, record))
                for record in getattr(self.site, oracle)()
            ]
        return rows

    def answer(self, query: Query) -> frozenset:
        answer = self._answers.get(query)
        if answer is None:
            answer = self._answers[query] = self._evaluate(query)
        return answer

    def _evaluate(self, query: Query) -> frozenset:
        # hash joins, starting from a relation with a constant and adding
        # whichever remaining relation an equality connects
        remaining = list(query.rels)
        selective = {_rel(ref) for ref, _ in query.where}
        first = next((r for r in remaining if r in selective), remaining[0])
        remaining.remove(first)
        joined = {first}
        rows = self._selected(first, query)
        while remaining:
            rel, keys = next(
                (rel, keys)
                for rel in remaining
                if (keys := _join_keys(query, joined, rel))
            )
            remaining.remove(rel)
            joined.add(rel)
            index: dict[tuple, list[dict]] = {}
            for row in self._selected(rel, query):
                index.setdefault(
                    tuple(row[new] for _, new in keys), []
                ).append(row)
            rows = [
                {**left, **right}
                for left in rows
                for right in index.get(tuple(left[old] for old, _ in keys), ())
            ]
        return frozenset(tuple(row[ref] for ref in query.select) for row in rows)

    def _selected(self, rel: str, query: Query) -> list[dict]:
        consts = [(ref, v) for ref, v in query.where if _rel(ref) == rel]
        return [
            row
            for row in self._rows(rel)
            if all(row[ref] == value for ref, value in consts)
        ]


def _join_keys(query: Query, joined: set, rel: str) -> list[tuple[str, str]]:
    """``(joined-side ref, rel-side ref)`` for every equality linking
    ``rel`` to the relations joined so far."""
    keys = []
    for a, b in query.joins:
        if _rel(a) == rel and _rel(b) in joined:
            keys.append((b, a))
        elif _rel(b) == rel and _rel(a) in joined:
            keys.append((a, b))
    return keys


_FOUR_WAY = dict(
    rels=("Course", "CourseInstructor", "Professor", "ProfDept"),
    joins=(
        ("Course.CName", "CourseInstructor.CName"),
        ("CourseInstructor.PName", "Professor.PName"),
        ("Professor.PName", "ProfDept.PName"),
    ),
)


def example_7_2(dept: str) -> Query:
    """The paper's Example 7.2 with the department as a parameter."""
    return Query(
        select=("Professor.PName", "Professor.email"),
        where=(("ProfDept.DName", dept), ("Course.Type", "Graduate")),
        **_FOUR_WAY,
    )


def professors_of(dept: str) -> Query:
    return Query(
        select=("Professor.PName", "Professor.Rank", "Professor.email"),
        rels=("Professor", "ProfDept"),
        joins=(("Professor.PName", "ProfDept.PName"),),
        where=(("ProfDept.DName", dept),),
    )


FALL_COURSES = Query(
    select=("Course.CName", "Course.Description", "CourseInstructor.PName"),
    rels=("Course", "CourseInstructor"),
    joins=(("Course.CName", "CourseInstructor.CName"),),
    where=(("Course.Session", "Fall"),),
)

GRADUATE_SCAN = Query(
    select=("Course.CName", "Course.Description"),
    rels=("Course",),
    where=(("Course.Type", "Graduate"),),
)

#: ``MIX`` is dealt in decks of this size: 70 % Example 7.2, 20 % two-way
#: join by department, 8 % join on Session='Fall', 2 % scan.
DECK = 50


def mix_queries(depts: list[str]) -> list[Query]:
    """Every distinct query ``MIX`` can issue (the set-up warm pass)."""
    return (
        [example_7_2(d) for d in depts]
        + [professors_of(d) for d in depts]
        + [FALL_COURSES, GRADUATE_SCAN]
    )


def mix_stream(rng: random.Random, depts: list[str]) -> Iterator[Query]:
    """Endless ``MIX``.  Shares are exact per deck and department constants
    cycle through a seeded permutation, so the seed decides *order* and
    *pairing* while the work per deck stays comparable across seeds."""
    order = list(depts)
    rng.shuffle(order)
    names = itertools.cycle(order)
    while True:
        deck = (
            [example_7_2(next(names)) for _ in range(35)]
            + [professors_of(next(names)) for _ in range(10)]
            + [FALL_COURSES] * 4
            + [GRADUATE_SCAN]
        )
        rng.shuffle(deck)
        yield from deck


def adhoc_pool(config: UniversityConfig, depts: list[str]) -> list[Query]:
    """Distinct 3- and 4-way joins: templates x optional constants x
    projections.  No two share their canonical SQL, so the planner's memo
    never hits."""

    def optional(ref: str, values) -> list[tuple]:
        return [()] + [((ref, value),) for value in values]

    rank = optional("Professor.Rank", config.ranks)
    session = optional("Course.Session", config.sessions)
    ctype = optional("Course.Type", config.course_types)
    templates = [
        (
            _FOUR_WAY,
            [optional("ProfDept.DName", depts), rank, session, ctype],
            ["Professor.PName", "Professor.email", "Professor.Rank",
             "ProfDept.DName", "Course.CName", "Course.Description",
             "Course.Session"],
            3,
        ),
        (  # Example 7.1's shape
            dict(
                rels=("Professor", "CourseInstructor", "Course"),
                joins=(
                    ("Professor.PName", "CourseInstructor.PName"),
                    ("CourseInstructor.CName", "Course.CName"),
                ),
            ),
            [rank, session, ctype],
            ["Professor.PName", "Professor.email", "Professor.Rank",
             "Course.CName", "Course.Description", "Course.Type"],
            2,
        ),
        (
            dict(
                rels=("Dept", "ProfDept", "Professor"),
                joins=(
                    ("Dept.DName", "ProfDept.DName"),
                    ("ProfDept.PName", "Professor.PName"),
                ),
            ),
            [optional("Dept.DName", depts), rank],
            ["Dept.DName", "Dept.Address", "Professor.PName",
             "Professor.Rank", "Professor.email"],
            2,
        ),
        (
            dict(
                rels=("ProfDept", "CourseInstructor", "Course"),
                joins=(
                    ("ProfDept.PName", "CourseInstructor.PName"),
                    ("CourseInstructor.CName", "Course.CName"),
                ),
            ),
            [optional("ProfDept.DName", depts), session, ctype],
            ["ProfDept.DName", "ProfDept.PName", "Course.CName",
             "Course.Session", "Course.Type", "Course.Description"],
            2,
        ),
    ]
    pool = []
    for shape, constant_axes, columns, widest in templates:
        projections = [
            select
            for width in range(1, widest + 1)
            for select in itertools.combinations(columns, width)
        ]
        for constants in itertools.product(*constant_axes):
            where = tuple(itertools.chain.from_iterable(constants))
            pool.extend(
                Query(select=select, where=where, **shape)
                for select in projections
            )
    return pool


# --------------------------------------------------------------------- #
# the site manager
# --------------------------------------------------------------------- #


def mutate(site, rng: random.Random, round_no: int) -> None:
    """One seeded pass of the autonomous site manager: new descriptions on
    5 % of the courses, one course added, one removed, and silent touches
    (fresh Last-Modified, same bytes) on 2 % of all pages."""
    mutator = SiteMutator(site)
    revised = rng.sample(site.courses, round(len(site.courses) * 0.05))
    for course in revised:
        base = course.description.split(" (rev ")[0]
        mutator.update_course_description(course, f"{base} (rev {round_no})")
    mutator.add_course(rng.choice(site.profs))
    mutator.remove_course(rng.choice(site.courses))
    perturb_server(site.server, seed=rng.randrange(2**31), fraction=0.02)


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #


COUNTERS = (
    "page_downloads",
    "light_connections",
    "simulated_seconds",
    "bytes_downloaded",
    "revalidations",
    "pages_saved",
    "pages_shared",
)


def log_counters(log) -> dict[str, float]:
    return {name: getattr(log, name) for name in COUNTERS}


@dataclass
class Op:
    """One timed operation: its latency and what it returned (a result
    carrying ``.relation``, or the exception it raised).  The runner drops
    ``result`` once checked, so peak RSS is the program's, not the
    harness's."""

    query: Query
    nanos: int
    result: object
    rows: int = 0
    #: ``server_mix`` only, from the request's ``QueryOutcome``
    queued_s: float = 0.0
    prefixes: int = 0


class Workload:
    """Set-up, a seeded stream of blocks, and one timed call per query.

    A *block* is the unit the runner times: an optional untimed
    ``before_block`` (the site manager), the block's queries one at a
    time, then the answers are checked outside the timer."""

    name: str
    site_name: str
    why: str
    block_ops: int
    #: operations of the fixed-count full-set run (``python -m perfbench``)
    ops: int
    cache: str = "off"

    def __init__(self, seed: int):
        self.seed = seed
        self.options = QueryOptions(cache=self.cache)

    # -- set-up ---------------------------------------------------------

    def setup(self) -> dict[str, float]:
        """Build everything the timed phase needs; returns the seconds each
        phase took (``sitegen.build_s``, ``sites.env_s``, ``prepare_s``)."""
        t0 = time.perf_counter()
        self.site = build_university_site(SITES[self.site_name])
        t1 = time.perf_counter()
        view = university_view(self.site.scheme)
        self.env = self.wire(site_env(self.site, view))
        t2 = time.perf_counter()
        self.depts = [dept.name for dept in self.site.depts]
        self.prepare()
        t3 = time.perf_counter()
        return {
            "sitegen.build_s": t1 - t0,
            "sites.env_s": t2 - t1,
            "prepare_s": t3 - t2,
        }

    def wire(self, env):
        """Seam for the traced pass (``perfbench.tracing``)."""
        return env

    def prepare(self) -> None:
        """Warm pass: every distinct ``MIX`` query once, so first-time
        planning and lazy set-up land in ``setup_s``, not in the timing."""
        for query in mix_queries(self.depts):
            self.run(query)

    def close(self) -> None:
        pass

    # -- the timed phase ------------------------------------------------

    def blocks(self) -> Iterator[list[Query]]:
        stream = mix_stream(random.Random(f"{self.seed}:ops"), self.depts)
        while True:
            yield list(itertools.islice(stream, self.block_ops))

    def before_block(self, index: int) -> bool:
        """Untimed; True when the site changed (references are stale)."""
        return False

    def run(self, query: Query):
        return self.env.query(query.sql, options=self.options)

    def run_block(self, block: list[Query]) -> list[Op]:
        done = []
        for query in block:
            start = time.perf_counter_ns()
            try:
                result = self.run(query)
            except Exception as err:  # counted as a failed operation
                result = err
            done.append(Op(query, time.perf_counter_ns() - start, result))
        return done

    def maintenance_due(self, index: int) -> bool:
        """Whether a timed ``maintain()`` follows block ``index``."""
        return False

    def counters(self) -> dict[str, float]:
        """Cumulative network accounting; the runner differences it around
        each timed section."""
        return log_counters(self.env.client.log)

    def reconcile(self) -> list[str]:
        """``AccessLog.reconcile`` over every log of the run."""
        return self.env.client.log.reconcile()


class AdhocPlan(Workload):
    name = "adhoc_plan"
    site_name = "uni_small"
    why = (
        "every SQL string is distinct, so the planner does most of the work "
        "and wrapper/web little: a plan cache or hash-consed algebra must "
        "move it, a faster wrapper must not"
    )
    block_ops = 50
    ops = 700

    def prepare(self) -> None:
        # The pool comes out ordered by template, then constants, then
        # projection.  Cut it into ``block_ops`` contiguous strata and deal
        # block k the k-th query of every (seed-shuffled) stratum: each
        # block then holds the same mix of shapes and selectivities, and
        # the seed only picks which member of a stratum comes when.
        pool = adhoc_pool(self.site.config, self.depts)
        rng = random.Random(f"{self.seed}:ops")
        size = len(pool) / self.block_ops
        strata = [
            pool[round(i * size) : round((i + 1) * size)]
            for i in range(self.block_ops)
        ]
        for stratum in strata:
            rng.shuffle(stratum)
        self.dealt = [list(block) for block in zip(*strata)]
        for block in self.dealt:
            rng.shuffle(block)

    def blocks(self) -> Iterator[list[Query]]:
        return iter(self.dealt)


class NavCold(Workload):
    name = "nav_cold"
    site_name = "uni_medium"
    why = (
        "repeated MIX queries, cache off: download + wrap do ~90% of the "
        "work and planning ~0 (memo hits), so a one-pass extractor must "
        "move it and planner work must not"
    )
    block_ops = DECK
    ops = 1200


class MutatingWorkload(Workload):
    """A workload whose site changes before every block."""

    def setup(self) -> dict[str, float]:
        self._mutations = random.Random(f"{self.seed}:mutations")
        return super().setup()

    def before_block(self, index: int) -> bool:
        mutate(self.site, self._mutations, index)
        return True


class NavWarmMutating(MutatingWorkload):
    name = "nav_warm_mutating"
    site_name = "uni_medium"
    why = (
        "warm cross-query cache over a site edited between rounds: HEAD "
        "revalidation, cache-aware planning, invalidation on write; a "
        "wrapped-tuple cache must move it, a leaky or stale one shows here"
    )
    block_ops = 25
    ops = 500
    cache = "cross_query"

    def prepare(self) -> None:
        self.env.enable_cache(capacity=4096)  # fits the 294-page site
        super().prepare()


class MatMutating(MutatingWorkload):
    name = "mat_mutating"
    site_name = "uni_large"
    why = (
        "Algorithm 3 over a populated store while the site is edited, plus "
        "timed batch_refresh: operators + URLCheck + store dominate, wrap "
        "runs only for changed pages; read, maintenance and space trade off"
    )
    block_ops = 200
    ops = 10000
    #: a timed ``batch_refresh`` follows every this-many-th block
    refresh_every = 4

    def prepare(self) -> None:
        self.populate()
        self.engine = MaterializedEngine(self.store, self.env.planner)
        super().prepare()

    def populate(self) -> None:
        self.store = MaterializedStore(
            self.env.scheme, self.env.client, self.env.registry
        )
        self.store.populate()

    def run(self, query: Query):
        return self.engine.query(self.env.sql(query.sql), check=True)

    def maintenance_due(self, index: int) -> bool:
        return (index + 1) % self.refresh_every == 0

    def maintain(self) -> None:
        batch_refresh(self.store, workers=2)


class ServerMix(Workload):
    name = "server_mix"
    site_name = "uni_medium"
    why = (
        "nav_cold's mix and site through one long-lived QueryServer on real "
        "threads (plan lock, prefix single-flight, progress board, metrics "
        "sinks): sharing's page saving beside its real-time effect"
    )
    block_ops = DECK
    ops = 1200

    def prepare(self) -> None:
        # Two workers on two cores only fight for the interpreter lock, and
        # how hard depends on where the kernel puts them: unpinned, identical
        # runs ranged 39-51 q/s (49-55 pinned).  One CPU keeps the threads
        # real and the measurement about the server's code.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.server = QueryServer(
            self.env, ServerConfig(max_workers=CLIENTS, max_queue=64)
        )
        self._own = dict.fromkeys(COUNTERS, 0)
        self._unreconciled: list[str] = []
        super().prepare()

    def close(self) -> None:
        self.server.close()

    def run(self, query: Query, tenant: str = "t0"):
        request = QueryRequest(query.sql, self.options, tenant=tenant)
        return self.server.submit(request).outcome()

    def run_block(self, block: list[Query]) -> list[Op]:
        """Closed loop, ``CLIENTS`` clients with one outstanding query
        each; latency is submit → ``Ticket.outcome()``."""
        done: list[Optional[Op]] = [None] * len(block)
        todo = iter(enumerate(block))
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    slot, query = next(todo, (None, None))
                if query is None:
                    return
                start = time.perf_counter_ns()
                try:
                    outcome = self.run(query, f"t{slot % 2}")
                except Exception as err:  # e.g. admission refused
                    done[slot] = Op(query, time.perf_counter_ns() - start, err)
                    continue
                done[slot] = Op(
                    query,
                    time.perf_counter_ns() - start,
                    outcome.result if outcome.ok else outcome.error,
                    queued_s=outcome.queued_seconds,
                    prefixes=len(outcome.signatures),
                )

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # every query ran on its own client clone: add up the private logs
        for op in done:
            log = getattr(op.result, "log", None)
            if log is not None:
                self._unreconciled.extend(log.reconcile())
                for name in COUNTERS:
                    self._own[name] += getattr(log, name)
        return done

    def counters(self) -> dict[str, float]:
        shared = log_counters(self.server.navigator.log)
        return {name: self._own[name] + shared[name] for name in COUNTERS}

    def reconcile(self) -> list[str]:
        return self._unreconciled + self.server.navigator.log.reconcile()


WORKLOADS = {
    cls.name: cls
    for cls in (AdhocPlan, NavCold, NavWarmMutating, MatMutating, ServerMix)
}
