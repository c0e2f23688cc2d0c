"""Live progress and planner calibration.

The acceptance surface: ``Ticket.progress()`` fractions are monotone
non-decreasing under a concurrent 10-query mixed-tenant cohort and end
at 1.0, ``QueryServer.status()`` reports a consistent operational
snapshot, and the calibration report names per-operator q-error on the
three seed sites plus two fuzzed schemes.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import RecordingTracer
from repro.obs.explain import render_annotated_tree
from repro.obs.progress import (
    CalibrationEntry,
    ProgressBoard,
    ProgressTracer,
    calibration_entries,
    calibration_report,
    operator_estimates,
    qerror,
    render_calibration,
)
from repro.obs.trace import spans_by_node
from repro.options import QueryOptions, QueryRequest
from repro.qa.cli import build_site
from repro.server import QueryServer, ServerConfig
from repro.sites import movies

pytestmark = pytest.mark.usefixtures("isolated_metrics")


class TestQError:
    def test_perfect_estimate_is_one(self):
        assert qerror(10, 10) == 1.0

    def test_symmetric_in_direction(self):
        assert qerror(100, 10) == qerror(10, 100) == 10.0

    def test_zero_rows_clamp_to_one(self):
        # no division by zero; a 0-vs-0 estimate is perfect
        assert qerror(0, 0) == 1.0
        assert qerror(5, 0) == 5.0
        assert qerror(0, 5) == 5.0

    def test_always_at_least_one(self):
        assert qerror(0.25, 0.5) == 1.0  # both clamp to 1


class TestProgressBoard:
    ESTIMATES = {
        0: {"op": "Project", "est_tuples": 8.0},
        1: {"op": "EntryPointScan", "est_tuples": 8.0},
    }

    def test_unknown_request_reports_zero(self):
        board = ProgressBoard()
        snapshot = board.progress("ghost")
        assert snapshot.fraction == 0.0
        assert snapshot.total_operators == 0
        assert not snapshot.finished

    def test_fraction_counts_started_half_and_done_full(self):
        board = ProgressBoard()
        board.begin("r", self.ESTIMATES)
        assert board.progress("r").fraction == 0.0
        board.operator_started("r", 0)
        assert board.progress("r").fraction == 0.25  # 0.5 of 2
        board.operator_finished("r", 0, tuples=8, pages=1)
        assert board.progress("r").fraction == 0.5
        board.operator_finished("r", 1, tuples=8, pages=2)
        assert board.progress("r").fraction == 1.0

    def test_finish_pins_fraction_to_one(self):
        board = ProgressBoard()
        board.begin("r", self.ESTIMATES)
        board.finish("r")  # even with no operator touched (e.g. error)
        snapshot = board.progress("r")
        assert snapshot.finished and snapshot.fraction == 1.0

    def test_first_registration_wins(self):
        board = ProgressBoard()
        board.begin("r", self.ESTIMATES)
        board.begin("r", {0: {"op": "Other", "est_tuples": 99.0}})
        assert board.progress("r").operators[0].op == "Project"

    def test_q_error_appears_only_when_done(self):
        board = ProgressBoard()
        board.begin("r", self.ESTIMATES)
        board.operator_started("r", 0)
        assert board.progress("r").operators[0].q_error is None
        board.operator_finished("r", 0, tuples=4.0)
        assert board.progress("r").operators[0].q_error == 2.0

    def test_non_int_node_ids_are_ignored(self):
        board = ProgressBoard()
        board.begin("r", self.ESTIMATES)
        board.operator_started("r", None)
        board.operator_finished("r", "x", tuples=1)
        assert board.progress("r").started_operators == 0

    def test_forget_drops_the_request(self):
        board = ProgressBoard()
        board.begin("r", self.ESTIMATES)
        assert board.snapshots() == {"r": board.progress("r")}
        board.forget("r")
        assert not board.known("r")
        assert board.request_ids() == [] and board.snapshots() == {}


class TestProgressTracer:
    def test_operator_spans_feed_the_board(self):
        env = movies()
        sql = "SELECT Title, Year, Genre FROM Movie"
        expr = env.plan(sql, cache="off").best.expr
        board = ProgressBoard()
        board.begin("req", operator_estimates(expr, env.cost_model))
        tracer = ProgressTracer(RecordingTracer(), board, "req")
        result = env.execute(expr, options=QueryOptions(cache="off", tracer=tracer))
        snapshot = board.progress("req")
        assert snapshot.completed_operators == snapshot.total_operators > 0
        assert snapshot.fraction == 1.0
        assert snapshot.actual_tuples >= len(result.relation.rows)
        # the decorated tracer still recorded the full span tree
        assert spans_by_node(tracer.inner)

    def test_estimates_with_cost_model_match_explain(self):
        env = movies()
        expr = env.plan("SELECT Title, Year, Genre FROM Movie", cache="off").best.expr
        estimates = operator_estimates(expr, env.cost_model)
        assert estimates, "plan has operators"
        assert all(info["op"] for info in estimates.values())
        assert any(info["est_tuples"] > 0 for info in estimates.values())

    def test_estimates_without_cost_model_count_operators(self):
        env = movies()
        expr = env.plan("SELECT Title, Year, Genre FROM Movie", cache="off").best.expr
        estimates = operator_estimates(expr)
        assert len(estimates) == len(operator_estimates(expr, env.cost_model))
        assert all(info["est_tuples"] == 0.0 for info in estimates.values())


class TestServerCohortProgress:
    """The acceptance criterion: monotone completion fractions under a
    concurrent 10-query mixed-tenant cohort."""

    def test_fractions_monotone_under_mixed_cohort(self):
        env, queries = build_site("university")
        names = sorted(queries)
        requests = [
            QueryRequest(
                query=queries[names[i % len(names)]],
                options=QueryOptions(cache="off"),
                tenant=f"tenant-{i % 3}",
            )
            for i in range(10)
        ]
        with QueryServer(env, ServerConfig(max_workers=3)) as server:
            tickets = [server.submit(request) for request in requests]
            floors = {ticket.request_id: 0.0 for ticket in tickets}
            while not all(ticket.done() for ticket in tickets):
                for ticket in tickets:
                    fraction = ticket.progress().fraction
                    assert fraction >= floors[ticket.request_id]
                    assert 0.0 <= fraction <= 1.0
                    floors[ticket.request_id] = fraction
                time.sleep(0.001)
            outcomes = [ticket.outcome() for ticket in tickets]
            status = server.status()
        assert all(outcome.error is None for outcome in outcomes)
        assert status.completed == 10
        assert status.queue_depth == 0
        assert status.pending == {}
        # a resolved request has left the board; its ticket kept the final
        # snapshot, operators and all
        assert status.queries == {}
        for ticket in tickets:
            snapshot = ticket.progress()
            assert snapshot.finished and snapshot.fraction == 1.0
            assert snapshot.completed_operators == snapshot.total_operators > 0

    def test_served_requests_leave_the_board_empty(self):
        """The board holds requests in flight, not the server's history:
        2 000 served requests leave nothing behind, and whatever
        ``status()`` lists meanwhile is one of them."""
        env, queries = build_site("university")
        request = QueryRequest(
            query=queries["depts"], options=QueryOptions(cache="off")
        )
        config = ServerConfig(max_workers=2, max_queue=2_000)
        with QueryServer(env, config) as server:
            tickets = [server.submit(request) for _ in range(2_000)]
            seen = set()
            while not all(ticket.done() for ticket in tickets):
                seen.update(server.status().queries)
                time.sleep(0.001)
            for ticket in tickets:
                ticket.result(timeout=60)
            status = server.status()
            assert status.completed == 2_000
            assert status.queries == {} and server.progress.request_ids() == []
        assert seen <= {ticket.request_id for ticket in tickets}
        assert all(ticket.progress().fraction == 1.0 for ticket in tickets)

    def test_request_ids_are_server_allocated(self):
        env, queries = build_site("university")
        with QueryServer(env, ServerConfig(max_workers=1)) as server:
            ticket = server.submit(
                QueryRequest(
                    query=queries[sorted(queries)[0]],
                    options=QueryOptions(cache="off"),
                )
            )
            ticket.outcome()
        assert ticket.request_id.startswith("req-")


class TestCalibration:
    def test_entries_pair_estimates_with_actuals(self):
        env, queries = build_site("movies")
        entries = calibration_entries(env, queries, site_name="movies")
        assert entries
        assert all(isinstance(entry, CalibrationEntry) for entry in entries)
        assert all(entry.q_error >= 1.0 for entry in entries)
        assert {entry.site for entry in entries} == {"movies"}

    def test_report_names_per_operator_q_error_on_acceptance_sites(self):
        report = calibration_report(worst=5)
        # the default suite IS the acceptance surface
        assert report["sites"] == [
            "university", "bibliography", "movies", "fuzz:17", "fuzz:42"
        ]
        assert report["by_operator"], "per-operator aggregates present"
        for op, agg in report["by_operator"].items():
            assert agg["count"] > 0
            assert agg["max_q_error"] >= agg["mean_q_error"] >= 1.0
        assert len(report["worst"]) <= 5
        rendered = render_calibration(report)
        assert "q-error" in rendered
        for op in report["by_operator"]:
            assert op in rendered

    def test_explain_analyze_shows_q_error_column(self):
        env = movies()
        expr = env.plan("SELECT Title, Year, Genre FROM Movie", cache="off").best.expr
        tracer = RecordingTracer()
        env.execute(expr, options=QueryOptions(cache="off", tracer=tracer))
        rendered = render_annotated_tree(
            expr, env.cost_model, scheme=env.scheme, spans=spans_by_node(tracer)
        )
        assert "q-err" in rendered
