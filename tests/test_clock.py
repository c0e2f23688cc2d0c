"""Tests for the simulated clock and the k-lane timeline."""

import bisect

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import NEVER, SimClock, Timeline


def test_starts_at_one():
    assert SimClock().now() == 1


def test_custom_start():
    assert SimClock(start=10).now() == 10


def test_start_must_be_positive():
    with pytest.raises(ValueError):
        SimClock(start=0)


def test_tick_advances_by_one():
    clock = SimClock()
    assert clock.tick() == 2
    assert clock.tick() == 3
    assert clock.now() == 3


def test_advance():
    clock = SimClock()
    assert clock.advance(10) == 11


def test_advance_zero_is_allowed():
    clock = SimClock()
    assert clock.advance(0) == 1


def test_advance_rejects_negative():
    with pytest.raises(ValueError):
        SimClock().advance(-1)


def test_never_precedes_any_tick():
    assert NEVER < SimClock().now()


class TestTimeline:
    def test_one_lane_is_the_running_sum(self):
        tl = Timeline(lanes=1)
        for d in [0.5, 0.25, 1.0]:
            tl.add(d)
        assert tl.makespan == 0.5 + 0.25 + 1.0

    def test_greedy_assignment_overlaps(self):
        tl = Timeline(lanes=2)
        assert tl.add(3.0) == 3.0
        assert tl.add(1.0) == 1.0  # second lane
        assert tl.add(1.0) == 2.0  # back on the shorter lane
        assert tl.makespan == 3.0

    def test_equal_tasks_split_evenly(self):
        tl = Timeline(lanes=4)
        for _ in range(8):
            tl.add(1.0)
        assert tl.makespan == 2.0

    def test_more_lanes_never_slower(self):
        durations = [0.3, 1.2, 0.7, 0.1, 0.9, 0.4, 2.0, 0.6]
        makespans = []
        for lanes in [1, 2, 4, 8]:
            tl = Timeline(lanes)
            for d in durations:
                tl.add(d)
            makespans.append(tl.makespan)
        assert all(a >= b for a, b in zip(makespans, makespans[1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Timeline(lanes=0)
        with pytest.raises(ValueError):
            Timeline().add(-1.0)

    def test_more_lanes_than_tasks(self):
        """k > batch size: every task gets its own lane, so the makespan
        is just the longest single task."""
        tl = Timeline(lanes=8)
        for d in [0.5, 2.0, 1.0]:
            tl.add(d)
        assert tl.makespan == 2.0

    def test_zero_duration_tasks(self):
        tl = Timeline(lanes=2)
        assert tl.add(0.0) == 0.0
        assert tl.add(0.0) == 0.0
        assert tl.makespan == 0.0
        # zero-latency tasks never displace real work
        assert tl.add(1.5) == 1.5
        assert tl.makespan == 1.5

    def test_single_lane_matches_running_sum_in_order(self):
        durations = [0.3, 0.0, 1.2, 0.7, 0.1]
        tl = Timeline(lanes=1)
        running = 0.0
        for d in durations:
            running += d
            assert tl.add(d) == running
        assert tl.makespan == running

    def test_ties_break_by_lane_index(self):
        """With all lanes equally loaded, tasks land on lanes in index
        order — the documented deterministic tie-break."""
        tl = Timeline(lanes=3)
        assert [tl.add(1.0) for _ in range(3)] == [1.0, 1.0, 1.0]
        # all lanes now at 1.0; the next task lands on lane 0
        assert tl.add(2.0) == 3.0
        assert tl.makespan == 3.0

    def test_empty_timeline_makespan_is_zero(self):
        assert Timeline(lanes=4).makespan == 0.0


class TestReadyTimes:
    """``add(ready=...)`` — the earliest-start constraint pipelined
    execution uses to keep prefetch non-speculative in time."""

    def test_ready_delays_the_start(self):
        tl = Timeline(lanes=2)
        assert tl.add(1.0, ready=5.0) == 6.0
        assert tl.makespan == 6.0
        assert tl.intervals == [(0, 5.0, 6.0)]

    def test_ready_default_is_the_greedy_schedule(self):
        """ready=0 throughout must reproduce the classic earliest-free-lane
        packing exactly (the staged per-batch model)."""
        durations = [0.3, 1.2, 0.7, 0.1, 0.9]
        a, b = Timeline(lanes=2), Timeline(lanes=2)
        for d in durations:
            assert a.add(d) == b.add(d, ready=0.0)
        assert a.intervals == b.intervals

    def test_busy_lane_waits_free_lane_wins(self):
        tl = Timeline(lanes=2)
        tl.add(3.0)  # lane 0 busy until 3.0
        # ready at 2.0: lane 1 is idle then, so the task starts there
        assert tl.add(1.0, ready=2.0) == 3.0
        assert tl.intervals[-1] == (1, 2.0, 3.0)

    def test_backfills_idle_gaps(self):
        """A task placed after a later-ready one may start *before* it,
        inside the idle gap — a real connection pool starts any ready
        request on any idle connection, whatever order requests were
        queued.  Without this, submission order would leak into the
        makespan and a pipelined plan could exceed its staged one."""
        tl = Timeline(lanes=1)
        tl.add(1.0, ready=4.0)  # occupies [4.0, 5.0), gap before it
        assert tl.add(2.0, ready=1.0) == 3.0  # fits in [1.0, 3.0)
        assert tl.makespan == 5.0
        # a task too long for the gap goes after the committed work
        assert tl.add(2.0, ready=1.0) == 7.0

    def test_gap_must_fit_the_whole_duration(self):
        tl = Timeline(lanes=1)
        tl.add(1.0, ready=2.0)  # busy [2.0, 3.0)
        assert tl.add(2.5, ready=0.0) == 5.5  # 2.0-wide gap is too small
        assert tl.add(2.0, ready=0.0) == 2.0  # exactly fits [0.0, 2.0)

    def test_rejects_negative_ready(self):
        with pytest.raises(ValueError):
            Timeline(lanes=2).add(1.0, ready=-0.5)

    def test_completion_chain(self):
        """Chaining ready through completions models a pointer chase: the
        chain length is the sum of its durations, laid out in sequence."""
        tl = Timeline(lanes=4)
        done = 0.0
        for d in [0.5, 0.25, 1.0]:
            done = tl.add(d, ready=done)
        assert done == 1.75
        assert tl.makespan == 1.75


class WalkingTimeline:
    """The placement rule read literally: every add walks every busy
    interval of every lane (quadratic in the tasks placed) — what
    :class:`Timeline`'s no-gap shortcut must reproduce."""

    def __init__(self, lanes: int):
        self.horizons = [0.0] * lanes
        self.busy: list[list[tuple[float, float]]] = [[] for _ in range(lanes)]
        self.intervals: list[tuple[int, float, float]] = []

    def _start(self, lane: int, ready: float, duration: float) -> float:
        candidate = ready
        for start, end in self.busy[lane]:
            if candidate + duration <= start:
                return candidate
            candidate = max(candidate, end)
        return candidate

    def add(self, duration: float, ready: float = 0.0) -> float:
        lanes = range(len(self.horizons))
        if duration == 0:
            index = min(lanes, key=lambda i: max(self.horizons[i], ready))
            best = max(self.horizons[index], ready)
        else:
            index, best = 0, self._start(0, ready, duration)
            for lane in lanes[1:]:
                start = self._start(lane, ready, duration)
                if start < best:
                    index, best = lane, start
        end = best + duration
        bisect.insort(self.busy[index], (best, end))
        self.horizons[index] = max(self.horizons[index], end)
        self.intervals.append((index, best, end))
        return end

    @property
    def makespan(self) -> float:
        return max(self.horizons)


#: durations and ready instants on a grid, with exact zeros and repeats
_TIMES = st.one_of(
    st.just(0.0),
    st.integers(1, 40).map(lambda n: n / 8),
    st.floats(0.001, 10.0),
)


class TestNoGapShortcut:
    @settings(max_examples=200, deadline=None)
    @given(
        lanes=st.integers(1, 5),
        tasks=st.lists(
            st.tuples(_TIMES, st.one_of(st.just(0.0), _TIMES)), max_size=60
        ),
    )
    def test_matches_the_full_walk(self, lanes, tasks):
        fast, walk = Timeline(lanes), WalkingTimeline(lanes)
        for duration, ready in tasks:
            assert fast.add(duration, ready=ready) == walk.add(
                duration, ready=ready
            )
        assert fast.intervals == walk.intervals
        assert fast.makespan == walk.makespan

    def test_contiguous_lanes_do_not_walk(self):
        """Thousands of ready-at-zero tasks: each add is O(lanes), so the
        walk that made a 1 146-HEAD refresh batch quadratic is gone."""
        timeline = Timeline(2)
        for _ in range(5000):
            timeline.add(0.25)
        assert timeline.makespan == 625.0
        assert not any(timeline._gapped)
