"""Tests for pipelined execution (:mod:`repro.engine.pipeline`).

The pipeline's contract is *non-speculation*: chunked operators and link
prefetch may only reorder work the staged plan provably performs, so every
cost number the paper cares about — page downloads, attempts, cache
counters, the answer relation — is identical to staged execution, and only
the simulated makespan drops.  These tests pin that contract at the edges:
the k=1 degeneration (bit-for-bit the serial model), empty chunks, null
and dangling links, the backpressure bound, injected faults, every cache
policy, and (via hypothesis) fuzzed sites.

Comparison discipline (see ``docs/PIPELINE.md``): one fresh environment
per mode when comparing exact simulated seconds (a query's log is a delta
of cumulative client counters, so sharing an env adds float-subtraction
noise); URL lists compared as sorted multisets (batch submission order is
not an invariant); makespan inequalities get an ulp of slack
(``SECONDS_EPS``) because equal schedules may sum durations in different
orders.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.ast import FollowLink
from repro.engine.pipeline import (
    EXECUTION_MODES,
    PipelineConfig,
    PipelinedExecutor,
    PrefetchScheduler,
    coerce_execution,
)
from repro.engine.session import QuerySession
from repro.errors import ExecutionModeError, RetriesExhaustedError
from repro.options import QueryOptions
from repro.qa import relation_digest
from repro.sitegen import MovieConfig, UniversityConfig
from repro.sites import fuzzed, movies, university
from repro.web.client import AccessLog, FetchConfig, RetryPolicy
from repro.web.server import FaultPolicy

#: Slack for makespan inequalities: mathematically equal schedules may
#: accumulate the same durations in different addition orders.
SECONDS_EPS = 1e-9

ALWAYS_FAIL = 0.999999999

#: The Example 7.2 pointer chase — several follow-link stages in sequence,
#: so pipelining has real overlap to exploit.
CHASE_SQL = (
    "SELECT Professor.PName, email FROM Course, CourseInstructor, "
    "Professor, ProfDept WHERE Course.CName = CourseInstructor.CName "
    "AND CourseInstructor.PName = Professor.PName "
    "AND Professor.PName = ProfDept.PName "
    "AND ProfDept.DName = 'Computer Science' AND Type = 'Graduate'"
)

MOVIE_SQL = "SELECT Title, DName FROM MovieDirector"


def run_both(build, sql, workers):
    """Execute ``sql`` staged and pipelined, each on a fresh environment
    (exact-seconds comparisons need pristine cumulative counters)."""
    fetch = FetchConfig(max_workers=workers)
    staged = build().query(
        sql, options=QueryOptions(fetch=fetch, execution="staged")
    )
    pipelined = build().query(
        sql, options=QueryOptions(fetch=fetch, execution="pipelined")
    )
    return staged, pipelined


def assert_same_work(staged, pipelined):
    """The non-speculation invariant: identical pages, attempts, URL
    multiset, and answer — the only permitted difference is time."""
    assert pipelined.pages == staged.pages
    assert pipelined.log.attempts == staged.log.attempts
    assert sorted(pipelined.log.downloaded_urls) == sorted(
        staged.log.downloaded_urls
    )
    assert relation_digest(pipelined.relation) == relation_digest(
        staged.relation
    )


def count_follows(expr) -> int:
    return int(isinstance(expr, FollowLink)) + sum(
        count_follows(child) for child in expr.children()
    )


# --------------------------------------------------------------------- #
# the k=1 degeneration
# --------------------------------------------------------------------- #


class TestSerialDegeneration:
    def test_one_worker_is_bitforbit_staged(self):
        """With one lane there is no timeline: the pipelined path must
        reproduce the serial 1998 model exactly, seconds included."""
        staged, pipelined = run_both(university, CHASE_SQL, workers=1)
        assert_same_work(staged, pipelined)
        assert pipelined.log.simulated_seconds == staged.log.simulated_seconds
        assert pipelined.log.bytes_downloaded == staged.log.bytes_downloaded

    def test_one_worker_movies(self):
        staged, pipelined = run_both(movies, MOVIE_SQL, workers=1)
        assert_same_work(staged, pipelined)
        assert pipelined.log.simulated_seconds == staged.log.simulated_seconds


# --------------------------------------------------------------------- #
# non-speculation at real pool sizes
# --------------------------------------------------------------------- #


class TestNonSpeculation:
    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_same_pages_lower_makespan(self, workers):
        staged, pipelined = run_both(university, CHASE_SQL, workers=workers)
        assert_same_work(staged, pipelined)
        assert (
            pipelined.log.simulated_seconds
            <= staged.log.simulated_seconds + SECONDS_EPS
        )

    def test_strictly_faster_on_the_pointer_chase(self):
        """On a site with enough pages per stage, downstream stages start
        before the upstream batch drains — overlap must genuinely
        materialize, not just never hurt."""
        config = UniversityConfig(n_depts=4, n_profs=40, n_courses=100)
        staged, pipelined = run_both(
            lambda: university(config), CHASE_SQL, workers=4
        )
        assert pipelined.log.simulated_seconds < staged.log.simulated_seconds

    def test_custom_chunking_changes_nothing_but_time(self):
        """Any chunk size / backpressure combination computes the same
        relation from the same pages — including pathological ones.  The
        makespan dominance additionally holds from two in-flight batches
        of lookahead up (a one-batch window disables lookahead and may
        schedule a few percent worse; see ``PipelineConfig``)."""
        fetch = FetchConfig(max_workers=4)
        staged = university().query(
            CHASE_SQL, options=QueryOptions(fetch=fetch)
        )
        for config in (
            PipelineConfig(chunk_size=1, max_inflight_batches=1),
            PipelineConfig(chunk_size=1, max_inflight_batches=2),
            PipelineConfig(chunk_size=3, max_inflight_batches=2),
            PipelineConfig(chunk_size=64, max_inflight_batches=8),
        ):
            pipelined = university().query(
                CHASE_SQL,
                options=QueryOptions(
                    fetch=fetch, execution="pipelined", pipeline=config
                ),
            )
            assert_same_work(staged, pipelined)
            if config.max_inflight_batches >= 2:
                assert (
                    pipelined.log.simulated_seconds
                    <= staged.log.simulated_seconds + SECONDS_EPS
                )


# --------------------------------------------------------------------- #
# edge cases: empty chunks, null links, dangling links
# --------------------------------------------------------------------- #


class TestEdgeCases:
    EMPTY_SQL = "SELECT PName, Rank FROM Professor WHERE Rank = 'Wizard'"

    def test_empty_selection_yields_empty_chunks(self):
        """A predicate matching nothing drives empty chunks through every
        downstream stage; both modes agree on the empty answer and still
        download the same pages to learn it is empty."""
        staged, pipelined = run_both(university, self.EMPTY_SQL, workers=4)
        assert len(staged.relation) == 0
        assert len(pipelined.relation) == 0
        assert_same_work(staged, pipelined)

    def test_null_optional_links_are_skipped(self):
        """Movies without a director carry a null ToDirector link; the
        prefetcher must skip them (fetching None is speculation)."""
        config = MovieConfig(n_movies=12, undirected_every=3)
        staged, pipelined = run_both(
            lambda: movies(config), MOVIE_SQL, workers=4
        )
        assert_same_work(staged, pipelined)
        # the undirected movies are genuinely absent from the join
        assert len(pipelined.relation) < config.n_movies

    def test_dangling_links_are_tolerated(self):
        """A link whose target page vanished after the site was built is
        skipped by both modes, with identical accounting."""

        def build():
            env = movies()
            victim = env.site.server.urls_of_scheme("DirectorPage")[0]
            env.site.server.delete(victim)
            return env

        staged, pipelined = run_both(build, MOVIE_SQL, workers=4)
        assert_same_work(staged, pipelined)
        intact = movies().query(MOVIE_SQL)
        assert len(staged.relation) < len(intact.relation)


# --------------------------------------------------------------------- #
# backpressure
# --------------------------------------------------------------------- #


class TestBackpressure:
    def _evaluate(self, config):
        env = university(UniversityConfig())
        plan = env.plan(CHASE_SQL).best.expr
        session = QuerySession(
            env.client, env.registry, fetch_config=FetchConfig(max_workers=4)
        )
        scheduler = PrefetchScheduler(env.client.log, lanes=4)
        executor = PipelinedExecutor(
            env.scheme, session, scheduler, config=config
        )
        relation = executor.evaluate(plan)
        return plan, scheduler, relation

    def test_peak_inflight_respects_the_bound(self):
        """Each follow stage keeps at most ``max_inflight_batches`` batches
        issued ahead of consumption, so the global peak is bounded by that
        times the number of follow stages."""
        config = PipelineConfig(chunk_size=2, max_inflight_batches=2)
        plan, scheduler, relation = self._evaluate(config)
        follows = count_follows(plan)
        assert follows >= 1
        assert scheduler.peak_inflight >= 1  # it actually pipelined
        assert scheduler.peak_inflight <= config.max_inflight_batches * follows
        assert scheduler.inflight == 0  # everything issued was consumed
        staged = university(UniversityConfig()).query(CHASE_SQL)
        assert relation_digest(relation) == relation_digest(staged.relation)

    def test_minimal_backpressure_still_correct(self):
        config = PipelineConfig(chunk_size=1, max_inflight_batches=1)
        plan, scheduler, relation = self._evaluate(config)
        assert scheduler.peak_inflight <= count_follows(plan)
        staged = university(UniversityConfig()).query(CHASE_SQL)
        assert relation_digest(relation) == relation_digest(staged.relation)


# --------------------------------------------------------------------- #
# faults
# --------------------------------------------------------------------- #


class TestFaults:
    def test_transient_faults_absorbed_identically(self):
        """A deterministic 10% fault schedule is per-(url, attempt), so
        retries cost the same attempts whatever the execution order."""

        def faulty(build):
            env = build()
            env.site.server.fault_policy = FaultPolicy(
                failure_rate=0.10, seed=1998
            )
            return env

        staged, pipelined = run_both(
            lambda: faulty(university), CHASE_SQL, workers=8
        )
        assert_same_work(staged, pipelined)
        assert pipelined.log.failed_requests == staged.log.failed_requests
        clean = university().query(CHASE_SQL)
        assert relation_digest(pipelined.relation) == relation_digest(
            clean.relation
        )
        assert pipelined.pages == clean.pages
        assert pipelined.log.attempts > clean.log.attempts

    def test_exhausted_retries_abort_both_modes(self):
        retry = RetryPolicy(max_attempts=3, backoff_seconds=0.01)
        attempts = {}
        for mode in EXECUTION_MODES:
            env = university()
            env.site.server.fault_policy = FaultPolicy(
                failure_rate=ALWAYS_FAIL, seed=2
            )
            with pytest.raises(RetriesExhaustedError):
                env.query(
                    CHASE_SQL,
                    options=QueryOptions(
                        fetch=FetchConfig(max_workers=4),
                        retry=retry,
                        execution=mode,
                    ),
                )
            attempts[mode] = env.client.log.attempts
        # the abort happens at the same page with the same retry budget
        assert attempts["pipelined"] == attempts["staged"]


# --------------------------------------------------------------------- #
# caches
# --------------------------------------------------------------------- #


class TestCaches:
    @pytest.mark.parametrize("policy", ["off", "per_query", "cross_query"])
    def test_cache_counters_invariant(self, policy):
        """Cache classification (hit / revalidation / single-flight share)
        depends only on the access sequence per stage, which pipelining
        preserves — so every cache counter matches staged."""

        def build():
            env = movies()
            if policy != "off":
                env.enable_cache(policy=policy)
            return env

        sql = (
            "SELECT Movie.Title, Genre, MovieDirector.DName "
            "FROM Movie, MovieDirector "
            "WHERE Movie.Title = MovieDirector.Title"
        )
        staged, pipelined = run_both(build, sql, workers=4)
        assert_same_work(staged, pipelined)
        assert pipelined.cache_hits == staged.cache_hits
        assert pipelined.revalidations == staged.revalidations
        assert pipelined.pages_saved == staged.pages_saved

    def test_warm_cache_served_identically(self):
        """Pre-warmed cross-query cache: the pipelined re-run saves the
        same pages as a staged re-run and answers the same relation."""

        def warmed():
            env = movies()
            env.enable_cache()
            env.query(MOVIE_SQL)  # warm with a staged run
            return env

        staged, pipelined = run_both(warmed, MOVIE_SQL, workers=4)
        assert staged.pages_saved > 0
        assert pipelined.pages_saved == staged.pages_saved
        assert pipelined.pages == staged.pages
        assert relation_digest(pipelined.relation) == relation_digest(
            staged.relation
        )


# --------------------------------------------------------------------- #
# mode validation
# --------------------------------------------------------------------- #


class TestModeValidation:
    def test_modes_are_canonicalized(self):
        assert coerce_execution(" Staged ") == "staged"
        assert coerce_execution("PIPELINED") == "pipelined"
        assert coerce_execution(" Adaptive ") == "adaptive"
        assert tuple(EXECUTION_MODES) == ("staged", "pipelined", "adaptive")

    @pytest.mark.parametrize(
        "removed", ["columnar", "columnar_pipelined", "adaptive_pipelined"]
    )
    def test_removed_modes_raise(self, removed):
        """The modes that only re-ran the one core are gone, with no
        alias: asking for one is an unknown mode."""
        with pytest.raises(ExecutionModeError):
            coerce_execution(removed)

    @pytest.mark.parametrize("bad", ["", "eager", "pipeline", None, 3])
    def test_unknown_modes_raise(self, bad):
        with pytest.raises(ExecutionModeError):
            coerce_execution(bad)

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            coerce_execution("warp")

    def test_query_validates_before_planning(self, small_env):
        """An unknown mode must fail fast — even before the SQL is parsed,
        so a bad mode never triggers planning work (or its errors)."""
        with pytest.raises(ExecutionModeError):
            small_env.query(
                "THIS IS NOT SQL", options=QueryOptions(execution="warp")
            )

    def test_execute_validates_too(self, small_env):
        plan = small_env.plan("SELECT DName FROM Dept").best.expr
        with pytest.raises(ExecutionModeError):
            small_env.execute(plan, options=QueryOptions(execution="warp"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_size": 0},
            {"chunk_size": -3},
            {"max_inflight_batches": 0},
            {"max_inflight_batches": -1},
        ],
    )
    def test_pipeline_config_validates(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)


# --------------------------------------------------------------------- #
# the scheduler, in isolation
# --------------------------------------------------------------------- #


class TestPrefetchScheduler:
    def test_rejects_zero_lanes(self):
        with pytest.raises(ValueError):
            PrefetchScheduler(AccessLog(), lanes=0)

    def test_single_lane_is_inert(self):
        """lanes=1 must not build a timeline at all: batches fall back to
        the client's staged accounting, finalize charges nothing."""
        log = AccessLog()
        scheduler = PrefetchScheduler(log, lanes=1)
        assert not scheduler.pipelining
        assert scheduler.open_batch(ready=0.0) is None
        assert scheduler.makespan == 0.0
        assert scheduler.finalize() == 0.0
        assert log.simulated_seconds == 0.0

    def test_open_batch_carries_ready_and_base(self):
        log = AccessLog()
        log.simulated_seconds = 7.5
        scheduler = PrefetchScheduler(log, lanes=4)
        assert scheduler.pipelining
        batch = scheduler.open_batch(ready=1.5)
        assert batch.timeline is scheduler.timeline
        assert batch.ready == 1.5
        assert batch.base == 7.5
        assert batch.completed == 1.5  # until the consumer places fetches

    def test_finalize_charges_the_makespan_once(self):
        log = AccessLog()
        scheduler = PrefetchScheduler(log, lanes=2)
        scheduler.open_batch(ready=0.0)
        scheduler.timeline.add(2.0, ready=1.0)
        assert scheduler.makespan == 3.0
        assert scheduler.finalize() == 3.0
        assert log.simulated_seconds == 3.0
        assert scheduler.finalize() == 0.0  # idempotent
        assert log.simulated_seconds == 3.0

    def test_inflight_accounting(self):
        scheduler = PrefetchScheduler(AccessLog(), lanes=2)
        scheduler.note_issued()
        scheduler.note_issued()
        assert scheduler.inflight == 2
        assert scheduler.peak_inflight == 2
        scheduler.note_consumed()
        scheduler.note_issued()
        assert scheduler.inflight == 2
        assert scheduler.peak_inflight == 2
        scheduler.note_consumed()
        scheduler.note_consumed()
        assert scheduler.inflight == 0
        assert scheduler.peak_inflight == 2


# --------------------------------------------------------------------- #
# fuzzed sites (property-based)
# --------------------------------------------------------------------- #

#: One persistent environment pair per fuzz seed — page counts and
#: fingerprints come from per-query delta logs, so sharing is sound (only
#: exact-seconds comparisons need fresh environments).
_FUZZ_SEEDS = (17, 99)
_FUZZ = {
    seed: (fuzzed(seed), fuzzed(seed), tuple(fuzzed(seed).site.queries().items()))
    for seed in _FUZZ_SEEDS
}


class TestFuzzedSites:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.sampled_from(_FUZZ_SEEDS),
        query_index=st.integers(min_value=0, max_value=10),
        workers=st.sampled_from([2, 5]),
        chunk=st.sampled_from([1, 4, 16]),
    )
    def test_staged_and_pipelined_agree(self, seed, query_index, workers, chunk):
        """On machine-generated sites with fuzzed shapes, the two modes
        answer every suite query from the same pages."""
        staged_env, pipelined_env, queries = _FUZZ[seed]
        _, sql = queries[query_index % len(queries)]
        fetch = FetchConfig(max_workers=workers)
        staged = staged_env.query(sql, options=QueryOptions(fetch=fetch))
        pipelined = pipelined_env.query(
            sql,
            options=QueryOptions(
                fetch=fetch,
                execution="pipelined",
                pipeline=PipelineConfig(chunk_size=chunk),
            ),
        )
        assert pipelined.fingerprint() == staged.fingerprint()
        assert pipelined.pages == staged.pages
        assert pipelined.log.attempts == staged.log.attempts
        assert sorted(pipelined.log.downloaded_urls) == sorted(
            staged.log.downloaded_urls
        )
