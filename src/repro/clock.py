"""Deterministic simulated clock and timeline.

The paper's materialized-view maintenance (Section 8) compares a locally
stored ``AccessDate`` against the ``Last-Modified`` date returned by a light
HTTP connection.  Real wall-clock time would make tests flaky, so the whole
library shares a logical clock: an integer tick counter that only advances
when :meth:`SimClock.tick` (or :meth:`SimClock.advance`) is called.

Timestamps are plain integers; larger means later.  The clock starts at 1 so
that 0 can serve as "never" / "unknown".

:class:`Timeline` is the second half of deterministic time: a greedy
``k``-lane scheduler over simulated durations, used by the batched fetch
path to compute how long a set of overlapping round trips takes on ``k``
parallel connections.  Scheduling is by submission order (each task lands on
the lane that frees up earliest), so the makespan is a pure function of the
duration sequence — no wall-clock, no thread-timing nondeterminism.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

__all__ = ["SimClock", "Timeline", "BatchSchedule", "NEVER"]

#: Timestamp value meaning "no date recorded"; earlier than any real tick.
NEVER = 0


class SimClock:
    """A monotonically increasing logical clock.

    >>> clock = SimClock()
    >>> clock.now()
    1
    >>> clock.tick()
    2
    >>> clock.advance(10)
    12
    """

    def __init__(self, start: int = 1):
        if start < 1:
            raise ValueError("clock must start at 1 or later")
        self._now = start

    def now(self) -> int:
        """Return the current logical time without advancing it."""
        return self._now

    def tick(self) -> int:
        """Advance the clock by one tick and return the new time."""
        self._now += 1
        return self._now

    def advance(self, ticks: int) -> int:
        """Advance the clock by ``ticks`` (must be non-negative)."""
        if ticks < 0:
            raise ValueError("cannot move the clock backwards")
        self._now += ticks
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now})"


class Timeline:
    """Greedy scheduler of simulated durations over ``lanes`` parallel lanes.

    Each :meth:`add` places one task at the earliest feasible instant on
    any lane (ties broken by lane index) and returns that task's
    completion time; :attr:`makespan` is the simulated wall time for
    everything added so far.  With one lane and ``ready=0`` the makespan
    is the plain running sum, in exactly the order the durations were
    added — the serial model.

    >>> tl = Timeline(lanes=2)
    >>> tl.add(1.0), tl.add(1.0), tl.add(1.0)
    (1.0, 1.0, 2.0)
    >>> tl.makespan
    2.0
    """

    def __init__(self, lanes: int = 1):
        if lanes < 1:
            raise ValueError("a timeline needs at least one lane")
        self._lanes = [0.0] * lanes
        #: per-lane busy intervals, kept sorted by start time — the gap
        #: structure :meth:`add` backfills
        self._busy: list[list[tuple[float, float]]] = [
            [] for _ in range(lanes)
        ]
        #: lanes with an idle gap before their horizon: a task once started
        #: later than its lane's horizon; every other lane is busy from 0
        #: to its horizon without a break
        self._gapped = [False] * lanes
        #: per-task ``(lane, start, end)`` intervals in submission order —
        #: the schedule itself, consumed by the Chrome-trace exporter
        #: (:mod:`repro.obs.export`) and by span instrumentation
        self.intervals: list[tuple[int, float, float]] = []

    @property
    def lanes(self) -> int:
        return len(self._lanes)

    def _feasible_start(self, lane: int, ready: float, duration: float) -> float:
        """Earliest instant >= ``ready`` at which ``duration`` fits on
        ``lane`` — inside an idle gap between already-placed tasks, or
        after the last one (at once when the lane has no gap)."""
        if not self._gapped[lane]:
            return max(ready, self._lanes[lane])
        candidate = ready
        for start, end in self._busy[lane]:
            if candidate + duration <= start:
                return candidate
            candidate = max(candidate, end)
        return candidate

    def add(self, duration: float, ready: float = 0.0) -> float:
        """Schedule one task; returns its completion time.

        ``ready`` is the earliest simulated instant the task may start
        (its inputs exist from then on): the task is placed at the
        earliest feasible instant ``>= ready`` on whichever lane allows
        it — including inside an idle *gap* a previously placed
        later-ready task left behind, exactly as a real connection pool
        starts a ready request on any idle connection regardless of the
        order requests were queued.  Without the backfill, submission
        order would leak into the schedule and a pipelined plan could
        (pathologically) exceed its staged makespan.  With ``ready=0.0``
        throughout, tasks pack contiguously, no gaps ever form, and the
        schedule is the classic greedy earliest-free-lane one — the
        staged per-batch model.  Pipelined execution uses ``ready`` to
        model a fetch that must wait for the page carrying its URL to
        finish downloading.
        """
        if duration < 0:
            raise ValueError("durations must be non-negative")
        if ready < 0:
            raise ValueError("ready times must be non-negative")
        if duration == 0:
            # zero-cost tasks occupy no lane time; they complete at the
            # serial running point (earliest lane horizon), never
            # backfilled — every gap boundary would "fit" them
            index = min(
                range(len(self._lanes)),
                key=lambda i: max(self._lanes[i], ready),
            )
            best = max(self._lanes[index], ready)
        else:
            index = 0
            best = self._feasible_start(0, ready, duration)
            for lane in range(1, len(self._lanes)):
                start = self._feasible_start(lane, ready, duration)
                if start < best:
                    index, best = lane, start
        end = best + duration
        bisect.insort(self._busy[index], (best, end))
        if best > self._lanes[index]:
            self._gapped[index] = True
        self._lanes[index] = max(self._lanes[index], end)
        self.intervals.append((index, best, end))
        return end

    @property
    def makespan(self) -> float:
        """Simulated wall time consumed by all tasks added so far."""
        return max(self._lanes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeline(lanes={len(self._lanes)}, makespan={self.makespan})"


@dataclass
class BatchSchedule:
    """Placement instructions for one fetch batch on a *shared* timeline.

    Staged execution gives every batch its own :class:`Timeline`, so
    batches are barriers: the simulated clock advances by each batch's
    makespan in turn.  Pipelined execution instead threads one
    query-scoped timeline through every batch via this carrier:

    * ``timeline`` — the shared ``k``-lane schedule all batches land on;
    * ``ready`` — timeline-relative instant the batch's inputs exist (the
      completion time of the upstream chunk whose tuples produced the
      URLs); no task of the batch may start earlier — this is what makes
      prefetch non-speculative in *time* as well as in page set;
    * ``base`` — absolute simulated seconds at the timeline's origin, so
      trace events can report absolute lane intervals;
    * ``completed`` — out-parameter set by the consumer: the completion
      time (timeline-relative) of the batch, i.e. when the *last* of its
      fetches lands; downstream chunks use it as their ``ready``.

    The carrier lives here (not in the engine) because the web client
    consumes it and must not import engine modules.
    """

    timeline: Timeline
    ready: float = 0.0
    base: float = 0.0
    completed: float = 0.0
