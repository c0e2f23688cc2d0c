"""Smoke and schema test of the benchmark itself.

Run with ``python -m pytest perfbench -q`` — deliberately outside the
tier-1 ``testpaths``: it spends about a minute running every workload twice
at 10 % of its operation count.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.compare import COUNTS, verdict

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = SPEC["end_to_end"] + SPEC["per_layer"]


@pytest.fixture(scope="module")
def quick_sets():
    """Two ``--quick`` sets on one seed, as ``{workload: {metric: cell}}``."""
    sets = []
    for _ in range(2):
        subprocess.run(
            [sys.executable, "-m", "perfbench", "--quick", "--seed", "7"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        latest = json.loads((ROOT / "perfbench/results/latest.json").read_text())
        sets.append({w: row["metrics"] for w, row in latest["workloads"].items()})
    return sets


def test_every_declared_metric_is_reported_for_every_workload(quick_sets):
    assert list(quick_sets[0]) == [w["name"] for w in SPEC["workloads"]]
    for workload, metrics in quick_sets[0].items():
        for declared in DECLARED:
            cell = metrics[declared["name"]]
            assert cell["unit"] == declared["unit"], (workload, declared)
            assert isinstance(cell["value"], (int, float))
        for name in metrics:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)


def test_end_to_end_metrics_are_never_zero(quick_sets):
    for workload, metrics in quick_sets[0].items():
        for declared in SPEC["end_to_end"]:
            assert metrics[declared["name"]]["value"] > 0, (workload, declared)


def test_no_operation_fails(quick_sets):
    for metrics in quick_sets[0].values():
        assert metrics["failed_ratio"]["value"] == 0


def test_counts_repeat_exactly_on_one_seed(quick_sets):
    first, second = quick_sets
    for workload in first:
        for name in COUNTS:
            assert first[workload][name] == second[workload][name], (workload, name)


def test_span_self_times_add_up_to_the_query_span(quick_sets):
    for workload, metrics in quick_sets[0].items():
        assert metrics["trace.self_time_gap_ratio"]["value"] <= 0.02, workload


def test_trace_files_hold_linked_spans(quick_sets):
    for workload in quick_sets[0]:
        spans = json.loads(
            (ROOT / f"perfbench/results/trace-{workload}.json").read_text()
        )
        ids = {span["id"] for span in spans}
        assert spans and all(span["start_ns"] <= span["end_ns"] for span in spans)
        assert all(span["parent"] is None or span["parent"] in ids for span in spans)


@pytest.mark.parametrize(
    "parent, change, better, exact, expected",
    [
        # wins every pair and the gap exceeds the parent's own spread
        ([10, 11, 10, 11, 10] * 2, [8, 8, 8, 8, 8] * 2, "lower", False, "improved"),
        # median worse than the 10 % bound
        ([10, 11, 10, 11, 10] * 2, [13, 13, 12, 13, 13] * 2, "lower", False, "regressed"),
        # within the bound, parent steady
        ([10.0, 10.1] * 5, [10.2, 10.1] * 5, "lower", False, "unchanged"),
        # parent's own spread is wider than the bound: cannot tell
        ([10, 14] * 5, [11, 13] * 5, "lower", False, "unresolved"),
        ([50, 60] * 5, [70, 80] * 5, "higher", False, "improved"),
        # counts compare pair by pair, exactly
        ([38.2] * 10, [38.2] * 10, "lower", True, "unchanged"),
        ([38.2] * 10, [38.2] * 9 + [38.3], "lower", True, "regressed"),
        ([38.2] * 10, [30.0] * 10, "lower", True, "improved"),
    ],
)
def test_compare_verdicts(parent, change, better, exact, expected):
    assert verdict(parent, change, better, 0.10, exact)[0] == expected
