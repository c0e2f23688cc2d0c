"""Fault injection must be plan-independent.

The QA oracle compares plans executed under the *same* fault seed, which
is only sound if the injected faults are a pure function of
``(seed, url, attempt)`` — never of plan shape, fetch order, or thread
interleaving.  :meth:`FaultPolicy.will_fail` / :meth:`fault_for` are that
pure function; these tests pin the purity and then the end-to-end
consequence: two different plans for the same query, run under equal-seed
policies, see identical per-URL retry behaviour on every page they share.
"""

from __future__ import annotations

import pytest

from repro.errors import TransientFetchError
from repro.options import QueryOptions
from repro.qa import relation_digest
from repro.sitegen import UniversityConfig
from repro.sites import university
from repro.web.client import FetchConfig, RetryPolicy
from repro.web.server import FaultPolicy

ENV = university(UniversityConfig(n_depts=2, n_profs=6, n_courses=10))

MULTI_PLAN_SQL = (
    "SELECT Professor.PName FROM Professor, ProfDept "
    "WHERE Professor.PName = ProfDept.PName"
)


class TestPurity:
    def test_will_fail_is_pure(self):
        a = FaultPolicy(failure_rate=0.5, seed=9)
        b = FaultPolicy(failure_rate=0.5, seed=9)
        urls = [f"http://x.example/{i}" for i in range(30)]
        for url in urls:
            for attempt in (1, 2, 3):
                assert a.will_fail(url, attempt) == b.will_fail(url, attempt)
        # call order cannot matter
        for url in reversed(urls):
            assert a.will_fail(url, 1) == b.will_fail(url, 1)

    def test_fault_for_agrees_with_will_fail(self):
        policy = FaultPolicy(failure_rate=0.4, seed=2)
        for i in range(40):
            url = f"http://x.example/{i}"
            for attempt in (1, 2, 3):
                fault = policy.fault_for(url, attempt)
                assert (fault is not None) == policy.will_fail(url, attempt)
                if fault is not None:
                    assert isinstance(fault, TransientFetchError)
                    assert fault.url == url
                    assert fault.attempt == attempt

    def test_check_follows_the_pure_schedule(self):
        """The stateful entry point (per-URL attempt counters) raises
        exactly when the pure schedule says attempt n fails."""
        policy = FaultPolicy(failure_rate=0.5, seed=7)
        url = "http://x.example/page"
        for attempt in range(1, 8):
            expected = policy.will_fail(url, attempt)
            raised = False
            try:
                policy.check(url)
            except TransientFetchError as err:
                raised = True
                assert err.attempt == attempt
            assert raised == expected
            assert policy.attempts_made(url) == attempt

    def test_attempt_counters_are_per_url(self):
        policy = FaultPolicy(failure_rate=0.0, seed=0)
        policy.check("http://x.example/a")
        policy.check("http://x.example/a")
        policy.check("http://x.example/b")
        assert policy.attempts_made("http://x.example/a") == 2
        assert policy.attempts_made("http://x.example/b") == 1
        assert policy.attempts_made("http://x.example/never") == 0


class TestPlanIndependence:
    def _run_plan(self, plan, seed, workers):
        """Execute one plan under a fresh equal-seed policy; returns
        (digest, {url: (attempts, transient_failures)})."""
        server = ENV.site.server
        server.fault_policy = FaultPolicy(failure_rate=0.3, seed=seed)
        try:
            before = ENV.client.log.snapshot()
            result = ENV.execute(
                plan.expr,
                options=QueryOptions(
                    fetch=FetchConfig(max_workers=workers),
                    retry=RetryPolicy(max_attempts=8, backoff_seconds=0.01),
                    cache="off",
                ),
            )
            delta = ENV.client.log.delta(before)
        finally:
            server.fault_policy = None
        per_url = {
            r.url: (r.attempts, r.transient_failures)
            for r in delta.records
            if r.ok
        }
        return relation_digest(result.relation), per_url

    @pytest.mark.parametrize("workers", [1, 4])
    def test_shared_pages_fail_identically_across_plans(self, workers):
        plans = ENV.enumerate_plans(MULTI_PLAN_SQL)
        assert len(plans) >= 2
        runs = [self._run_plan(plan, seed=5, workers=workers)
                for plan in plans[:3]]
        digests = {digest for digest, _ in runs}
        assert len(digests) == 1, "plans disagreed under faults"
        seen: dict[str, set] = {}
        for _, per_url in runs:
            for url, behaviour in per_url.items():
                seen.setdefault(url, set()).add(behaviour)
        assert any(
            sum(1 for _, r in runs if url in r) > 1 for url in seen
        ), "plans share no pages — vacuous comparison"
        for url, behaviours in seen.items():
            assert len(behaviours) == 1, (
                f"{url}: retry behaviour depends on the plan"
            )

    def test_fresh_policy_replays_exactly(self):
        """Replaying one plan under a fresh equal-seed policy reproduces
        the run bit-for-bit — the property that makes every QA cell
        reproducible from its id."""
        plan = ENV.enumerate_plans(MULTI_PLAN_SQL)[0]
        first = self._run_plan(plan, seed=11, workers=4)
        second = self._run_plan(plan, seed=11, workers=4)
        assert first == second

    def test_stale_policy_counters_shift_the_schedule(self):
        """Why the oracle uses a fresh policy per cell: reusing one policy
        across runs advances its per-URL attempt counters, so the second
        run sees a different (later) slice of the schedule."""
        url = "http://x.example/page"
        policy = FaultPolicy(failure_rate=0.5, seed=1)
        first = [policy.will_fail(url, n) for n in (1, 2, 3)]
        # consume three attempts; the *stateful* schedule now starts at 4
        for _ in range(3):
            try:
                policy.check(url)
            except TransientFetchError:
                pass
        continued = [policy.will_fail(url, n) for n in (4, 5, 6)]
        if first != continued:
            raised = []
            for _ in range(3):
                try:
                    policy.check(url)
                    raised.append(False)
                except TransientFetchError:
                    raised.append(True)
            assert raised == continued
