"""Chrome-trace export: valid JSON, and per-lane fetch spans never overlap.

The exporter mirrors the :class:`~repro.clock.Timeline` k-lane greedy
schedule — one thread track per lane — so a k-worker batch renders as k
parallel swimlanes in Perfetto.  Because a lane never overlaps its own
tasks, the exported complete events on one ``tid`` must be disjoint too.
"""

import json

import pytest

from repro.obs import RecordingTracer
from repro.obs.export import (
    FETCH_PID,
    OPERATOR_PID,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.options import QueryOptions
from repro.qa.cli import EX72_SQL
from repro.web.client import FetchConfig

pytestmark = pytest.mark.usefixtures("isolated_metrics")


def _traced_run(env, sql, workers):
    tracer = RecordingTracer()
    result = env.executor.execute(
        env.plan(sql).best.expr,
        options=QueryOptions(
            fetch=FetchConfig(max_workers=workers), tracer=tracer
        ),
    )
    return result, tracer


def test_export_is_valid_json_with_disjoint_lanes(uni_env, tmp_path):
    result, tracer = _traced_run(uni_env, EX72_SQL, workers=4)
    path = tmp_path / "trace.json"
    document = write_chrome_trace(str(path), tracer)

    parsed = json.loads(path.read_text())
    assert parsed == document
    events = parsed["traceEvents"]
    assert events, "no events exported"

    complete = [e for e in events if e["ph"] == "X"]
    for event in complete:
        assert set(event) >= {"name", "ph", "pid", "tid", "ts", "dur"}
        assert isinstance(event["ts"], int) and isinstance(event["dur"], int)
        assert event["dur"] >= 0

    fetches = [e for e in complete if e["pid"] == FETCH_PID]
    assert fetches, "no fetch lane events exported"
    lanes = {}
    for event in fetches:
        lanes.setdefault(event["tid"], []).append(
            (event["ts"], event["ts"] + event["dur"])
        )
    assert len(lanes) > 1, "a k=4 batch should populate several lanes"
    for lane, intervals in lanes.items():
        intervals.sort()
        for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
            assert e0 <= s1, f"lane {lane} overlaps: {(s0, e0)} vs {(s1, e1)}"


def test_operator_track_covers_fetch_extent(uni_env):
    _, tracer = _traced_run(uni_env, EX72_SQL, workers=4)
    events = chrome_trace_events(tracer)
    operators = [
        e for e in events if e["ph"] == "X" and e["pid"] == OPERATOR_PID
    ]
    fetches = [e for e in events if e["ph"] == "X" and e["pid"] == FETCH_PID]
    assert operators and fetches
    op_end = max(e["ts"] + e["dur"] for e in operators)
    fetch_end = max(e["ts"] + e["dur"] for e in fetches)
    assert fetch_end <= op_end


def test_metadata_names_both_processes_and_lanes(uni_env):
    _, tracer = _traced_run(uni_env, EX72_SQL, workers=2)
    events = chrome_trace_events(tracer)
    meta = [e for e in events if e["ph"] == "M"]
    names = {(e["name"], e["pid"], e.get("tid")) for e in meta}
    assert ("process_name", OPERATOR_PID, 0) in names
    assert ("process_name", FETCH_PID, 0) in names
    assert any(e["name"] == "thread_name" for e in meta)


def test_serial_run_exports_single_lane(uni_env):
    _, tracer = _traced_run(uni_env, EX72_SQL, workers=1)
    events = chrome_trace_events(tracer)
    fetch_lanes = {
        e["tid"] for e in events if e["ph"] == "X" and e["pid"] == FETCH_PID
    }
    assert fetch_lanes == {0}
