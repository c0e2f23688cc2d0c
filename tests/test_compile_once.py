"""Compile once, parse once: a repeated query reuses its parsed SQL and its
compiled plan.

``compile_plan`` answers from one bounded table keyed by the interned plan
node and the scheme object, and ``SiteEnv.sql`` from a bounded table keyed
by SQL text.  These tests pin the reuse (on every execution path), the
bound, the key, that executors leave a shared plan as compiled, that an
error is never kept, and that concurrent queries sharing plans still get
the solo answer.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import sites
from repro.engine import compile as compile_module
from repro.engine.compile import MAX_PLANS, compile_plan
from repro.errors import NotComputableError, ParseError
from repro.materialized import MaterializedEngine, MaterializedStore
from repro.obs.trace import RecordingTracer
from repro.optimizer.memo import Table
from repro.options import QueryOptions, QueryRequest
from repro.qa import relation_digest
from repro.server import QueryServer
from repro.sites import fuzzed, university
from tests.test_adaptive import SQL as SKEW_SQL, plain_candidate, scenario_a_env
from tests.test_columnar import CHASE_SQL

MODES = ("staged", "pipelined", "adaptive")


@pytest.fixture
def fresh_compiles(monkeypatch):
    """An empty plan table, and the list of plans compiled afresh (each
    fresh compile appends its plan node)."""
    compiled: list = []
    fresh = compile_module._compile_plan

    def spy(expr, scheme, memo):
        compiled.append(expr)
        return fresh(expr, scheme, memo)

    monkeypatch.setattr(compile_module, "_PLANS", Table(MAX_PLANS))
    monkeypatch.setattr(compile_module, "_compile_plan", spy)
    return compiled


@pytest.fixture
def parses(monkeypatch):
    """The SQL texts parsed afresh."""
    parsed: list = []
    fresh = sites.parse_query

    def spy(text, view):
        parsed.append(text)
        return fresh(text, view)

    monkeypatch.setattr(sites, "parse_query", spy)
    return parsed


def _kept_plans() -> list:
    return compile_module._PLANS.rows(compile_module._compile_plan)


class TestOnce:
    @pytest.mark.parametrize("execution", MODES)
    def test_repeated_query_compiles_and_parses_once(
        self, execution, fresh_compiles, parses
    ):
        env = university()
        options = QueryOptions(execution=execution)
        first = env.query(CHASE_SQL, options=options)
        compiled = list(fresh_compiles)
        assert compiled and parses == [CHASE_SQL]
        again = env.query(CHASE_SQL, options=options)
        assert fresh_compiles == compiled
        assert parses == [CHASE_SQL]
        assert relation_digest(again.relation) == relation_digest(first.relation)
        assert again.pages == first.pages

    def test_algorithm_3_compiles_and_parses_once(self, fresh_compiles, parses):
        env = university()
        store = MaterializedStore(env.scheme, env.client, env.registry)
        store.populate()
        engine = MaterializedEngine(store, env.planner)
        first = engine.query(env.sql(CHASE_SQL), check=True)
        assert len(fresh_compiles) == 1 and parses == [CHASE_SQL]
        again = engine.query(env.sql(CHASE_SQL), check=True)
        assert len(fresh_compiles) == 1 and parses == [CHASE_SQL]
        assert relation_digest(again.relation) == relation_digest(first.relation)
        assert again.light_connections == first.light_connections

    def test_every_entry_point_parses_once(self, parses):
        env = university()
        env.plan(CHASE_SQL)
        env.explain(CHASE_SQL)
        env.query(CHASE_SQL)
        with QueryServer(env) as server:
            server.submit(QueryRequest(query=CHASE_SQL)).result()
        assert parses == [CHASE_SQL]

    def test_a_parse_error_is_raised_on_every_call(self, parses):
        env = university()
        for _ in range(3):
            with pytest.raises(ParseError):
                env.sql("SELECT FROM Dept")
        assert parses == ["SELECT FROM Dept"] * 3
        assert len(env._parsed) == 0


class TestBound:
    def test_more_plans_than_the_bound_keep_the_bound(self, fresh_compiles):
        """A stream of distinct plans keeps at most ``MAX_PLANS`` compiled
        plans; an evicted plan compiles again, to the same answer."""
        env = university()
        ranks = [f"Rank{i}" for i in range(MAX_PLANS + 16)] + ["Full"]
        plans = [
            env.plan(f"SELECT PName, email FROM Professor WHERE Rank = '{rank}'")
            .best.expr
            for rank in ranks
        ]
        assert len(set(map(id, plans))) == len(plans)
        evicted = env.plan(CHASE_SQL).best.expr
        first = compile_plan(evicted, env.scheme)
        answer = relation_digest(env.execute(evicted).relation)
        for plan in plans:
            compile_plan(plan, env.scheme)
            assert len(_kept_plans()) <= MAX_PLANS
        assert len(_kept_plans()) == MAX_PLANS
        assert all(row.root.expr in plans for row in _kept_plans())
        count = len(fresh_compiles)
        again = compile_plan(evicted, env.scheme)
        assert len(fresh_compiles) == count + 1
        assert again is not first and again.node_count == first.node_count
        assert relation_digest(env.execute(evicted).relation) == answer

    def test_an_error_is_not_kept(self, fresh_compiles):
        env = university()
        plan = env.plan(CHASE_SQL).best.expr
        other = fuzzed(1)
        for _ in range(2):
            with pytest.raises(NotComputableError):
                compile_plan(plan, other.scheme)
        assert len(fresh_compiles) == 2
        assert _kept_plans() == []


class TestKey:
    def test_one_plan_two_schemes_two_compiled_plans(self, fresh_compiles):
        """Two fuzzed sites share page-scheme names, so a query plans to
        the same interned node on both; each scheme gets its own compiled
        plan, and each answers its own site."""
        envs = fuzzed(1), fuzzed(2)
        sql = envs[0].site.queries()["q_alphabeta"]
        assert sql == envs[1].site.queries()["q_alphabeta"]
        plan = envs[0].plan(sql).best.expr
        assert envs[1].plan(sql).best.expr is plan
        compiled = [compile_plan(plan, env.scheme) for env in envs]
        assert compiled[0] is not compiled[1]
        assert fresh_compiles == [plan, plan]
        answers = []
        for env in envs:
            relation = env.execute(plan, options=QueryOptions(cache="off")).relation
            names = relation.schema.names()
            got = {tuple(row[name] for name in names) for row in relation}
            assert got == env.site.expected_pair("Alpha", "Beta")
            answers.append(got)
        assert answers[0] != answers[1]
        assert fresh_compiles == [plan, plan]
        for env, kept in zip(envs, compiled):
            assert compile_plan(plan, env.scheme) is kept


def _fields(plan) -> list:
    return [(node, dict(vars(node))) for node in plan.root.walk()]


def _assert_unchanged(before: list) -> None:
    for node, fields in before:
        assert vars(node).keys() == fields.keys()
        for name, value in fields.items():
            assert getattr(node, name) is value, (node.node_id, name)


class TestReadOnly:
    @pytest.mark.parametrize("traced", [False, True])
    def test_runs_leave_the_compiled_nodes_as_compiled(self, traced):
        env = university()
        plan = env.plan(CHASE_SQL).best.expr
        compiled = compile_plan(plan, env.scheme)
        before = _fields(compiled)
        for execution in MODES:
            tracer = RecordingTracer() if traced else None
            env.execute(
                plan, options=QueryOptions(execution=execution, tracer=tracer)
            )
            assert compile_plan(plan, env.scheme) is compiled
            _assert_unchanged(before)

    def test_a_rule_9_switch_leaves_the_compiled_nodes_as_compiled(self):
        env = scenario_a_env()
        _, candidate = plain_candidate(env.plan(SKEW_SQL))
        compiled = compile_plan(candidate.expr, env.scheme)
        before = _fields(compiled)
        for _ in range(2):
            result = env.execute(
                candidate.expr, options=QueryOptions(execution="adaptive")
            )
            assert [s.rule for s in result.adaptive.switches] == ["PointerChase"]
            _assert_unchanged(before)
        assert compile_plan(candidate.expr, env.scheme) is compiled


def test_threads_sharing_compiled_plans_get_the_solo_answer(fresh_compiles):
    """Four threads run one query under every execution mode through one
    environment, racing on the plan and parse tables from empty: each
    answer is the solo one and the access log reconciles."""
    solo_env = university()
    solo = {
        execution: relation_digest(
            solo_env.query(CHASE_SQL, options=QueryOptions(execution=execution))
            .relation
        )
        for execution in MODES
    }
    env = university()
    found: list = []
    errors: list = []

    def run(offset: int) -> None:
        try:
            for step in range(6):
                execution = MODES[(offset + step) % len(MODES)]
                result = env.query(
                    CHASE_SQL, options=QueryOptions(execution=execution)
                )
                found.append((execution, relation_digest(result.relation)))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(found) == 24
    assert all(digest == solo[execution] for execution, digest in found)
    assert env.client.log.reconcile() == []
    assert len(_kept_plans()) <= MAX_PLANS
