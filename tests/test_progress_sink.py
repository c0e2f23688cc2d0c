"""What the progress board costs a served request, and what it shows.

A board is fed by operator spans alone: a request that asks for no trace
and no journal records nothing (no :class:`RecordingTracer`, no
``result.trace``), yet its board snapshot equals the one a recording
tracer feeds, node for node, in every execution mode.  A plan's
estimates are computed once per (plan, cost model), and afresh after
:meth:`~repro.sites.SiteEnv.refresh_statistics`.
"""

from __future__ import annotations

import pytest

import repro.obs.explain as explain
from repro.obs.journal import Journal
from repro.obs.trace import RecordingTracer
from repro.options import QueryOptions, QueryRequest
from repro.qa.cli import MOVIE_QUERIES, UNIVERSITY_QUERIES
from repro.server import QueryServer, ServerConfig
from repro.sitegen.mutations import SiteMutator
from repro.sites import movies, university

pytestmark = pytest.mark.usefixtures("isolated_metrics")

MODES = ("staged", "pipelined", "adaptive")


def _nodes(snapshot):
    return [
        (op.node_id, op.op, op.est_tuples, op.actual_tuples, op.actual_pages)
        for op in snapshot.operators
    ]


def _served(server, expr, mode, tracer=None):
    options = QueryOptions(cache="off", execution=mode, tracer=tracer)
    ticket = server.submit(QueryRequest(plan=expr, options=options))
    result = ticket.result(timeout=60)
    return ticket.progress(), result


@pytest.mark.parametrize(
    "make_env, queries",
    [(university, UNIVERSITY_QUERIES), (movies, MOVIE_QUERIES)],
    ids=["university", "movies"],
)
def test_an_unrecorded_request_shows_what_a_recorder_shows(make_env, queries):
    """Two one-worker servers take the same requests in the same order, so
    their prefix sharing is the same; on the second each request brings a
    recording tracer, which the server wraps in ``ProgressTracer`` as
    before.  Every node's op, estimate, tuples and pages agree."""
    env = make_env()
    config = ServerConfig(max_workers=1)
    with QueryServer(env, config) as plain, QueryServer(env, config) as recorded:
        for name, sql in sorted(queries.items()):
            expr = env.plan(sql, cache="off").best.expr
            for mode in MODES:
                got, _ = _served(plain, expr, mode)
                want, _ = _served(recorded, expr, mode, RecordingTracer())
                assert got.completed_operators == got.total_operators > 0
                assert _nodes(got) == _nodes(want), (name, mode)


def test_a_pipelined_request_reports_every_operator():
    """An operator of a pipeline starts with its stream and finishes when
    the stream ends, with the rows it produced: the tuples equal a staged
    run of the same plan."""
    env = university()
    with QueryServer(env, ServerConfig(max_workers=1)) as server:
        for name in ("depts", "profs", "course_instr"):
            expr = env.plan(UNIVERSITY_QUERIES[name], cache="off").best.expr
            pipelined, _ = _served(server, expr, "pipelined")
            staged, _ = _served(server, expr, "staged")
            total = pipelined.total_operators
            assert pipelined.completed_operators == total > 0, name
            assert [op.actual_tuples for op in pipelined.operators] == [
                op.actual_tuples for op in staged.operators
            ], name


def _count_recorders(monkeypatch) -> list:
    made: list = []
    init = RecordingTracer.__init__

    def counted(self) -> None:
        made.append(self)
        init(self)

    monkeypatch.setattr(RecordingTracer, "__init__", counted)
    return made


def test_an_untraced_request_builds_no_recorder(monkeypatch):
    env = university()
    expr = env.plan(UNIVERSITY_QUERIES["ex72"], cache="off").best.expr
    made = _count_recorders(monkeypatch)
    with QueryServer(env, ServerConfig(max_workers=1)) as server:
        for mode in MODES:
            snapshot, result = _served(server, expr, mode)
            assert snapshot.completed_operators == snapshot.total_operators
            assert result.trace is None
    assert made == []


def test_a_journaled_request_builds_one_recorder(monkeypatch):
    env = university()
    expr = env.plan(UNIVERSITY_QUERIES["ex72"], cache="off").best.expr
    made = _count_recorders(monkeypatch)
    config = ServerConfig(max_workers=1, journal=Journal())
    with QueryServer(env, config) as server:
        _, result = _served(server, expr, "staged")
    assert len(made) == 1
    assert result.trace is not None and result.trace.kind == "query"


def test_a_request_with_its_own_tracer_gets_its_trace():
    env = university()
    expr = env.plan(UNIVERSITY_QUERIES["depts"], cache="off").best.expr
    tracer = RecordingTracer()
    with QueryServer(env, ServerConfig(max_workers=1)) as server:
        _, result = _served(server, expr, "staged", tracer)
    assert result.trace is not None
    assert any(span is result.trace for span in tracer.spans(kind="query"))
    assert any(span.kind == "operator" for span in result.trace.walk())


def test_estimates_are_computed_once_per_plan_and_model(monkeypatch):
    env = university()
    expr = env.plan(UNIVERSITY_QUERIES["course_instr"], cache="off").best.expr
    reports: list = []
    plan_report = explain.plan_report

    def counted(expr, cost_model, *args, **kwargs):
        reports.append(cost_model)
        return plan_report(expr, cost_model, *args, **kwargs)

    monkeypatch.setattr(explain, "plan_report", counted)
    with QueryServer(env, ServerConfig(max_workers=1)) as server:
        for _ in range(5):
            old, _ = _served(server, expr, "staged")
        assert reports == [env.cost_model]
        mutator = SiteMutator(env.site)
        for prof in env.site.profs[:4]:
            mutator.add_course(prof)
        env.refresh_statistics()
        new, _ = _served(server, expr, "staged")
    assert len(reports) == 2 and reports[1] is env.cost_model
    want = [report.est_card for report in plan_report(expr, env.cost_model)]
    assert [op.est_tuples for op in new.operators] == want
    assert want != [op.est_tuples for op in old.operators]
