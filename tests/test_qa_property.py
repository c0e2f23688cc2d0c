"""Property-based conformance: cost accounting and cache transparency.

Hypothesis drives random interleavings of queries, cache modes, and
worker counts through one shared environment and asserts the accounting
invariants the QA oracle relies on:

* the client's :meth:`~repro.web.client.AccessLog.reconcile` never finds
  an inconsistency — every aggregate counter stays derivable from the
  per-fetch records, whatever the interleaving;
* ``CostSummary.from_log`` is a faithful projection of the log;
* executing with ``cache="off"`` is bit-for-bit the no-cache engine —
  same answer, same counters, and under a hostile fault schedule the
  *same* RetriesExhaustedError.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.options import QueryOptions
from repro.qa import relation_digest
from repro.sitegen import UniversityConfig
from repro.sites import university
from repro.web.cache import NO_CACHE, CachePolicy, PageCache
from repro.web.client import CostSummary, FetchConfig, RetryPolicy
from repro.web.server import FaultPolicy

ALWAYS_FAIL = 0.999999999

# module-level: hypothesis calls each test many times
ENV = university(UniversityConfig(n_depts=2, n_profs=6, n_courses=10))

_A_DEPT = sorted(d.name for d in ENV.site.depts)[0]

QUERIES = (
    "SELECT DName, Address FROM Dept",
    "SELECT PName, Rank FROM Professor",
    "SELECT CName, PName FROM CourseInstructor",
    "SELECT Professor.PName FROM Professor, ProfDept "
    f"WHERE Professor.PName = ProfDept.PName AND DName = '{_A_DEPT}'",
)

steps = st.tuples(
    st.sampled_from(range(len(QUERIES))),
    st.sampled_from(["off", "per_query", "cross_query"]),
    st.sampled_from([1, 2, 5]),
)


def run(sql, cache, workers, retry=None, fault_seed=None):
    """One query execution; returns (digest, delta log)."""
    server = ENV.site.server
    server.fault_policy = (
        None
        if fault_seed is None
        else FaultPolicy(failure_rate=ALWAYS_FAIL, seed=fault_seed)
    )
    try:
        before = ENV.client.log.snapshot()
        result = ENV.execute(
            ENV.plan(sql).best.expr,
            options=QueryOptions(
                fetch=FetchConfig(max_workers=workers),
                retry=retry,
                cache=cache,
            ),
        )
        return relation_digest(result.relation), ENV.client.log.delta(before)
    finally:
        server.fault_policy = None


class TestLogReconciliation:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(steps, min_size=1, max_size=4))
    def test_log_always_reconciles(self, sequence):
        cache = PageCache(capacity=512, policy=CachePolicy.CROSS_QUERY)
        start = ENV.client.log.snapshot()
        for query_index, mode, workers in sequence:
            per_call = NO_CACHE if mode == "off" else cache
            if mode != "off":
                cache.policy = CachePolicy.coerce(mode)
            run(QUERIES[query_index], per_call, workers)
        assert ENV.client.log.delta(start).reconcile() == []
        assert ENV.client.log.reconcile() == []

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps)
    def test_cost_summary_mirrors_log(self, step):
        query_index, mode, workers = step
        cache = NO_CACHE if mode == "off" else PageCache(
            capacity=512, policy=CachePolicy.coerce(mode)
        )
        _, delta = run(QUERIES[query_index], cache, workers)
        cost = delta.cost
        assert cost == CostSummary.from_log(delta)
        assert cost.pages == delta.page_downloads
        assert cost.light_connections == delta.light_connections
        assert cost.bytes == delta.bytes_downloaded
        assert cost.attempts == delta.attempts
        assert cost.pages_saved == delta.pages_saved
        assert cost.pages_saved == cost.cache_hits + cost.revalidations


class TestOffIsNoCache:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(range(len(QUERIES))), st.sampled_from([1, 4]))
    def test_off_is_bitwise_no_cache(self, query_index, workers):
        sql = QUERIES[query_index]
        digest_off, delta_off = run(sql, NO_CACHE, workers)
        digest_none, delta_none = run(sql, None, workers)  # env has no cache
        assert ENV.page_cache is None
        assert digest_off == digest_none
        for attr in ("page_downloads", "light_connections",
                     "bytes_downloaded", "attempts", "cache_hits",
                     "revalidations", "pages_saved", "downloaded_urls"):
            assert getattr(delta_off, attr) == getattr(delta_none, attr), attr
        assert math.isclose(
            delta_off.simulated_seconds,
            delta_none.simulated_seconds,
            rel_tol=1e-9,
            abs_tol=1e-9,
        )

    @pytest.mark.parametrize("query_index", [0, 3])
    def test_off_fails_identically_to_no_cache(self, query_index):
        """Under a hostile fault schedule both paths abort on the same URL
        after the same number of attempts."""
        from repro.errors import RetriesExhaustedError

        sql = QUERIES[query_index]
        retry = RetryPolicy(max_attempts=3, backoff_seconds=0.01)
        errors = []
        for cache in (NO_CACHE, None):
            with pytest.raises(RetriesExhaustedError) as info:
                run(sql, cache, 1, retry=retry, fault_seed=13)
            errors.append(info.value)
        assert errors[0].url == errors[1].url
        assert errors[0].attempts == errors[1].attempts == 3
