"""Run one workload in this process: set-up, timed phase, checks, metrics.

The untraced pass (``--trace 0``) yields the end-to-end metrics and imports
nothing from :mod:`perfbench.tracing`.  The traced run (``--trace 1``)
runs the same seeded operations plain and under the benchmark's own spans,
block by block in turn, and yields the per-layer metrics.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from perfbench.workloads import COUNTERS, WORKLOADS, GroundTruth, Op, Workload

#: ``setup_s`` is the median of this many complete set-ups.
SETUPS = 3


@dataclass
class PassResult:
    """What one timed phase measured."""

    ops: list[Op] = field(default_factory=list)
    failed: int = 0
    wall_ns: int = 0
    cpu_ns: int = 0
    counters: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(COUNTERS, 0)
    )
    problems: list[str] = field(default_factory=list)

    def per_query(self, counter: str) -> float:
        return self.counters[counter] / len(self.ops)


def percentile(values, share: float):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def set_up(workload: Workload) -> dict[str, float]:
    """Set up ``SETUPS`` times, keep the last; per-phase median seconds."""
    runs = []
    for attempt in range(SETUPS):
        if attempt:
            workload.close()
            gc.collect()
        runs.append(workload.setup())
    return {
        phase: statistics.median(run[phase] for run in runs) for phase in runs[0]
    }


class Pass:
    """The timed phase of one workload, advanced one block at a time (the
    traced run interleaves two of them).  A block is: the untimed site
    manager, the block's queries (timed), any maintenance due (timed), then
    the answers checked outside the timer."""

    def __init__(
        self,
        workload: Workload,
        *,
        seconds: Optional[float] = None,
        ops: Optional[int] = None,
    ):
        self.workload = workload
        self.seconds = seconds
        self.ops = ops
        self.result = PassResult()
        self._truth = GroundTruth(workload.site)
        self._blocks = enumerate(workload.blocks())

    def _timed(self, section, *args):
        workload, result = self.workload, self.result
        before = workload.counters()
        cpu = time.process_time_ns()
        wall = time.perf_counter_ns()
        done = section(*args)
        result.wall_ns += time.perf_counter_ns() - wall
        result.cpu_ns += time.process_time_ns() - cpu
        after = workload.counters()
        for name in COUNTERS:
            result.counters[name] += after[name] - before[name]
        return done

    def step(self) -> bool:
        """Run the next block; False once ``seconds`` of timed work have
        elapsed, ``ops`` operations are done, or the stream is dry."""
        workload, result = self.workload, self.result
        if self.seconds is not None and result.wall_ns >= self.seconds * 1e9:
            return False
        index, block = next(self._blocks, (None, None))
        if self.ops is not None and block:
            block = block[: self.ops - len(result.ops)]
        if not block:
            return False
        if workload.before_block(index):
            self._truth.invalidate()
        done = self._timed(workload.run_block, block)
        if workload.maintenance_due(index):
            self._timed(workload.maintain)
        for op in done:
            relation = getattr(op.result, "relation", None)
            if relation is None:
                result.failed += 1
                result.problems.append(f"{op.query.sql}: {op.result!r}")
            elif op.query.rows_of(relation) != self._truth.answer(op.query):
                result.failed += 1
                result.problems.append(f"{op.query.sql}: wrong answer")
            else:
                op.rows = len(relation)
            op.result = None
        result.ops.extend(done)
        return True

    def finish(self) -> PassResult:
        self.result.problems.extend(self.workload.reconcile())
        return self.result


def run_pass(workload: Workload, **length) -> PassResult:
    timed = Pass(workload, **length)
    while timed.step():
        pass
    return timed.finish()


def end_to_end(setup: dict[str, float], timed: PassResult) -> dict:
    latencies = [op.nanos for op in timed.ops]
    count = len(timed.ops)
    return {
        "setup_s": (sum(setup.values()), "s"),
        "throughput_qps": (count / (timed.wall_ns / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "latency_p95_ms": (percentile(latencies, 0.95) / 1e6, "ms"),
        "cpu_ms_per_query": (timed.cpu_ns / 1e6 / count, "ms"),
        "pages_per_query": (timed.per_query("page_downloads"), "pages"),
        "sim_s_per_query": (timed.per_query("simulated_seconds"), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MiB",
        ),
    }


def run_workload(
    name: str,
    seed: int,
    *,
    seconds: Optional[float] = None,
    ops: Optional[int] = None,
    trace: bool = False,
    import_s: float = 0.0,
) -> dict:
    """One benchmark run; returns the contract's result object.
    ``import_s`` is what importing the program cost the caller."""
    if trace:
        from perfbench import tracing

        return tracing.run_traced(name, seed, seconds=seconds, ops=ops)
    workload = WORKLOADS[name](seed)
    setup = {"import_s": import_s, **set_up(workload)}
    try:
        timed = run_pass(workload, seconds=seconds, ops=ops)
    finally:
        workload.close()
    return report([timed], end_to_end(setup, timed))


def report(passes: list[PassResult], metrics: dict) -> dict:
    """The contract's result object, plus ``problems`` for the log."""
    problems = [text for timed in passes for text in timed.problems]
    return {
        "correct": not problems,
        "attempted": sum(len(timed.ops) for timed in passes),
        "failed": sum(timed.failed for timed in passes),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "problems": problems,
    }
