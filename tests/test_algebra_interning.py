"""Hash-consed algebra: identity, equality, lifetime, threads.

``repro.algebra.ast`` nodes are interned: a constructor call returns the one
live object for the fields *as written*.  These tests pin what that means
against a structural reference kept here (nested tuples, and the printer
as it was before renderings were built from the children's):

* ``a is b``  ⇔  same class and fields as written, ``Predicate`` atom
  order included;
* ``a == b``  ⇔  field equality as the frozen dataclasses defined it
  (atom order ignored), with ``hash`` consistent;
* copies and pickles go back through the constructor;
* the intern table keeps nothing alive, and everything a planning call
  derives dies with the call;
* racing constructors and racing planners see one object per key.
"""

from __future__ import annotations

import copy
import gc
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.algebra import ast
from repro.algebra.ast import (
    EntryPointScan,
    Expr,
    ExternalRelScan,
    FollowLink,
    Join,
    Project,
    Select,
    Unnest,
)
from repro.algebra.parser import parse_navigation
from repro.algebra.predicates import AttrEq, Comparison, In, Predicate
from repro.algebra.printer import render_expr
from repro.algebra.visitors import walk
from repro.optimizer import Planner
from repro.optimizer.memo import PlanMemo
from repro.optimizer.rewriter import closure
from repro.optimizer.rules import RULES, projection_source, push_selections
from repro.sitegen import UniversityConfig
from repro.sites import university
from repro.views.translate import translate

from tests.plan_space_golden import adhoc_queries
from tests.planner_reference import (
    eliminate_unused_navigation,
    substitute_projection_node,
)

ENV = university(UniversityConfig(n_depts=2, n_profs=6, n_courses=10))
ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------- #
# the structural reference
# --------------------------------------------------------------------- #


def written(node: Expr) -> tuple:
    """The node as written: class, fields, predicates as *ordered* atoms."""
    return (type(node).__name__,) + tuple(
        written(v) if isinstance(v, Expr)
        else ("atoms", v.atoms) if isinstance(v, Predicate)
        else v
        for v in (getattr(node, name) for name in node._fields)
    )


def structural(node: Expr) -> tuple:
    """What the frozen dataclasses compared: predicates as atom *sets*."""
    return (type(node).__name__,) + tuple(
        structural(v) if isinstance(v, Expr)
        else frozenset(v.atoms) if isinstance(v, Predicate)
        else v
        for v in (getattr(node, name) for name in node._fields)
    )


def rebuild(form: tuple) -> Expr:
    """A node from its :func:`written` form, through the constructors."""
    cls = getattr(ast, form[0])
    return cls(*(
        Predicate(v[1]) if isinstance(v, tuple) and v[:1] == ("atoms",)
        else rebuild(v) if isinstance(v, tuple) and v and hasattr(ast, str(v[0]))
        else v
        for v in form[1:]
    ))


def reference_render(expr: Expr, compact: bool = False) -> str:
    """``render_expr`` as one recursive walk (the pre-interning printer)."""

    def short(attr: str) -> str:
        return attr.rsplit(".", 1)[-1]

    def name(attr: str) -> str:
        return short(attr) if compact else attr

    def go(node: Expr) -> str:
        if isinstance(node, (EntryPointScan, ExternalRelScan)):
            return node.name
        if isinstance(node, Select):
            atoms = str(node.predicate)
            if compact:
                mapping = {a: short(a) for a in node.predicate.attrs()}
                atoms = str(node.predicate.rename(mapping))
            return f"σ_{{{atoms}}}({go(node.child)})"
        if isinstance(node, Project):
            cols = ",".join(
                name(i) if o == i or o == short(i) else f"{name(i)} as {o}"
                for o, i in node.outputs
            )
            return f"π_{{{cols}}}({go(node.child)})"
        if isinstance(node, Join):
            cond = ",".join(f"{name(a)}={name(b)}" for a, b in node.on)
            return f"({go(node.left)} ⋈_{{{cond}}} {go(node.right)})"
        if isinstance(node, Unnest):
            return f"{go(node.child)} ∘ {name(node.attr)}"
        assert isinstance(node, FollowLink)
        return f"{go(node.child)} →{name(node.link_attr)} {node.alias or '?'}"

    return go(expr)


# --------------------------------------------------------------------- #
# expressions: constructors, the parser, translate, every rule
# --------------------------------------------------------------------- #

# small alphabets on purpose: equal and nearly-equal trees must be common
ATTRS = ["A.x", "A.y", "B.x", "B.L", "A.L.f"]
ATOMS = st.one_of(
    st.builds(Comparison, st.sampled_from(ATTRS), st.sampled_from(["1", "2"])),
    st.builds(AttrEq, st.sampled_from(ATTRS), st.sampled_from(ATTRS)),
    st.builds(
        In,
        st.sampled_from(ATTRS),
        st.lists(st.sampled_from(["1", "2", "3"]), min_size=1, max_size=2).map(tuple),
    ),
)
PREDICATES = st.lists(ATOMS, min_size=1, max_size=3).map(Predicate)
ALIASES = st.sampled_from([None, "P", "Q"])
PAIRS = st.tuples(st.sampled_from(ATTRS), st.sampled_from(ATTRS))
LEAVES = st.one_of(
    st.builds(EntryPointScan, st.sampled_from(["A", "B"]), ALIASES),
    st.builds(
        ExternalRelScan,
        st.sampled_from(["R", "S"]),
        st.sampled_from([("x",), ("x", "y")]),
        ALIASES,
    ),
)


def _grow(children):
    outputs = st.lists(PAIRS, min_size=1, max_size=2, unique_by=lambda p: p[0])
    return st.one_of(
        st.builds(Select, children, PREDICATES),
        st.builds(Project, children, outputs.map(tuple)),
        st.builds(Unnest, children, st.sampled_from(ATTRS)),
        st.builds(FollowLink, children, st.sampled_from(ATTRS), ALIASES),
        st.builds(
            Join, children, children, st.lists(PAIRS, max_size=2).map(tuple)
        ),
    )


EXPRS = st.recursive(LEAVES, _grow, max_leaves=4)


def _planned_exprs() -> list[Expr]:
    """Parsed navigations, translated queries, every candidate of their
    plan spaces, and what each rule makes of every node of those."""
    scheme = ENV.scheme
    found = [
        parse_navigation(text, scheme)
        for text in (
            "ProfListPage.ProfList->ToProf",
            "ProfListPage . ProfList -> ToProf as P2",
            "DeptListPage.DeptList->ToDept.ProfList->ToProf",
        )
    ]

    def rule_7(node, memo):
        if not isinstance(node, Project):
            return []
        return substitute_projection_node(
            node, lambda name: projection_source(node.child, name, memo)
        )

    rules = [rule.rewrite for rule in RULES.values()] + [rule_7]
    for sql in adhoc_queries(ENV)[::60]:
        query = ENV.sql(sql)
        found.append(translate(query, ENV.view))
        for candidate in ENV.planner.plan_query(query).candidates:
            found.append(candidate.expr)
            found.append(push_selections(candidate.expr, scheme))
            found.append(eliminate_unused_navigation(candidate.expr, scheme))
            for _, node in walk(candidate.expr):
                for rewrite in rules:
                    found.extend(rewrite(node, PlanMemo(scheme, ENV.stats)))
    return found


PLANNED = _planned_exprs()


def _permuted_selections() -> tuple[Expr, Expr]:
    """Two live selections that are ``==`` and print differently."""
    scan = EntryPointScan("A")
    x, y = Comparison("A.x", "1"), Comparison("A.y", "1")
    return Select(scan, Predicate([x, y])), Select(scan, Predicate([y, x]))


def _permuted_professor_selections() -> tuple[Expr, Expr]:
    """The same, over a navigation the scheme types."""
    nav = parse_navigation("ProfListPage.ProfList->ToProf", ENV.scheme)
    rank = Comparison("ProfPage.Rank", "Full")
    email = Comparison("ProfPage.email", "x")
    return nav.where(Predicate([rank, email])), nav.where(Predicate([email, rank]))


def _check_pair(a: Expr, b: Expr) -> None:
    assert (a is b) == (written(a) == written(b))
    assert (a == b) == (structural(a) == structural(b))
    assert (a != b) == (structural(a) != structural(b))
    if a == b:
        assert hash(a) == hash(b)


def _check_one(expr: Expr) -> None:
    assert rebuild(written(expr)) is expr
    assert copy.copy(expr) is expr
    assert copy.deepcopy(expr) is expr
    assert pickle.loads(pickle.dumps(expr)) is expr
    memo = PlanMemo(ENV.scheme)
    for compact in (False, True):
        text = reference_render(expr, compact)
        assert render_expr(expr, compact=compact) == text
        assert memo.key(expr, compact=compact) == text
    assert all(kid is again for kid, again in zip(expr.children(), expr.children()))
    assert expr.with_children(expr.children()) is expr


class TestIdentityAndEquality:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(EXPRS, EXPRS)
    @example(Join(*_permuted_selections(), ()), EntryPointScan("A"))
    def test_constructed_expressions(self, a, b):
        _check_one(a)
        _check_pair(a, b)
        _check_pair(a, a)

    def test_planned_expressions(self):
        assert len(PLANNED) > 500
        distinct = {id(e): e for e in PLANNED}
        for expr in distinct.values():
            _check_one(expr)
        sample = list(distinct.values())[:: max(1, len(distinct) // 120)]
        for a in sample:
            for b in sample:
                _check_pair(a, b)

    def test_permuted_atoms_are_two_objects_that_compare_equal(self):
        scan = EntryPointScan("A")
        p, q = Comparison("A.x", "1"), Comparison("A.y", "2")
        ab, ba = Select(scan, Predicate([p, q])), Select(scan, Predicate([q, p]))
        assert ab is not ba and ab == ba and hash(ab) == hash(ba)
        assert render_expr(ab) != render_expr(ba)
        # ... and so are parents built over each of them
        assert Unnest(ab, "A.L") is not Unnest(ba, "A.L")
        assert Unnest(ab, "A.L").child is ab and Unnest(ba, "A.L").child is ba
        assert Select(scan, Predicate([p, q])) is ab
        assert Unnest(ab, "A.L").with_children((ba,)).child is ba

    def test_one_memo_renders_each_of_two_equal_nodes_as_written(self):
        """``PlanMemo.key`` is by identity: ``==`` would hand the second
        selection the first one's text, and dedup / the final sort / the
        rewrite trace would depend on which was rendered first."""
        ab, ba = _permuted_selections()
        for first, second in ((ab, ba), (ba, ab)):
            memo = PlanMemo(ENV.scheme)
            for compact in (False, True):
                for node in (first, second, Join(first, second, ())):
                    assert memo.key(node, compact) == render_expr(
                        node, compact=compact
                    )
            assert memo.key(first) != memo.key(second)

    def test_a_per_call_pass_answers_each_of_two_equal_nodes_as_written(self):
        """``per_call`` finds a node by identity: by ``==``, pushing the
        second selection's atoms would answer what the first one's became,
        in the first one's order."""
        x, y = (
            s.project("ProfPage.PName") for s in _permuted_professor_selections()
        )
        assert x == y and x is not y
        for first, second in ((x, y), (y, x)):
            memo = PlanMemo(ENV.scheme)
            push_selections(first, ENV.scheme, memo)
            alone = push_selections(second, ENV.scheme)
            assert push_selections(second, ENV.scheme, memo) is alone

    def test_a_closure_rewrites_each_of_two_equal_nodes_as_written(self):
        """The closure's table of one-step rewritings is by identity too:
        two equal joins each get their own, so closing them together finds
        what closing each alone finds."""
        depts = EntryPointScan("DeptListPage").unnest("DeptListPage.DeptList")
        joins = [Join(s, depts, ()) for s in _permuted_professor_selections()]
        rules = [RULES["JoinPushdown"]]
        together = closure(joins, rules, ENV.scheme)
        apart = [p for j in joins for p in closure([j], rules, ENV.scheme)]
        rendered = sorted(map(render_expr, together))
        assert rendered == sorted(set(map(render_expr, apart)))

    def test_every_field_is_part_of_the_identity(self):
        scan = EntryPointScan("A")
        assert EntryPointScan("A", None) is scan
        assert EntryPointScan("A", "A") is not scan
        assert FollowLink(scan, "A.L") is not FollowLink(scan, "A.L", "P")
        assert FollowLink(scan, "A.L") is scan.follow("A.L")
        assert ExternalRelScan("R", ("x",)) is not ExternalRelScan("R", ("x",), "R")
        assert Unnest(scan, "A.x") is not FollowLink(scan, "A.x")
        assert Join(scan, scan, ()) is not Join(scan, scan, (("A.x", "A.x"),))

    def test_nodes_are_immutable(self):
        scan = EntryPointScan("A")
        for attempt in (
            lambda: setattr(scan, "alias", "B"),
            lambda: setattr(scan, "extra", 1),
            lambda: delattr(scan, "page_scheme"),
        ):
            try:
                attempt()
            except AttributeError:
                continue
            raise AssertionError("an interned node was mutated")

    def test_an_unpickled_node_that_skipped_the_constructor_still_compares(self):
        """Interning is the fast path, never the definition of equality."""
        original = EntryPointScan("A").unnest("A.L").follow("A.L.f", "P")
        twin = object.__new__(FollowLink)
        for name in FollowLink._fields + ("_hash",):
            object.__setattr__(twin, name, getattr(original, name))
        assert twin is not original
        assert twin == original and hash(twin) == hash(original)
        assert Unnest(twin, "P.x") == Unnest(original, "P.x")


# --------------------------------------------------------------------- #
# lifetime
# --------------------------------------------------------------------- #

_LIFETIME = """
import gc
from repro import university
from repro.algebra.ast import _INTERNED
from repro.algebra.visitors import walk
from repro.sitegen import UniversityConfig
from tests.plan_space_golden import adhoc_queries

env = university(UniversityConfig())
queries = adhoc_queries(env)[:300]
assert len(set(queries)) == 300
kept = None
for sql in queries:
    result = env.plan(sql)
    kept = kept or result
during = len(_INTERNED)
del env, result
gc.collect()
own = {id(node) for c in kept.candidates for _, node in walk(c.expr)}
assert {id(node) for node in _INTERNED.values()} == own, (len(_INTERNED), len(own))
del kept
gc.collect()
assert len(_INTERNED) == 0, list(_INTERNED.values())[:5]
print("nodes while planning:", during, "held by one result:", len(own))
"""


def test_nothing_outlives_the_environment_but_a_held_result():
    """300 distinct queries planned, the ``SiteEnv`` dropped: a
    ``PlannerResult`` held alone keeps exactly its own nodes alive, and
    once it goes the intern table is empty.  Run in a fresh interpreter:
    this process's fixtures legitimately hold plans."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run(
        [sys.executable, "-c", _LIFETIME],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "held by one result" in done.stdout


def test_a_planning_call_leaves_only_its_result():
    """The memo dies with the call: while the result is held, the only new
    live nodes are the result's own; once it is dropped, none remain.  (A
    traced run, so the planner's own memo of results does not keep it.)"""
    planner = Planner(ENV.view, ENV.cost_model)
    query = ENV.sql(adhoc_queries(ENV)[7])
    gc.collect()
    before = len(ast._INTERNED)
    result = planner.plan_query(query, trace=True)
    own = {id(n) for c in result.candidates for _, n in walk(c.expr)}
    assert 0 < len(ast._INTERNED) - before <= len(own)
    del result
    gc.collect()
    assert len(ast._INTERNED) == before


# --------------------------------------------------------------------- #
# threads
# --------------------------------------------------------------------- #


def _space(result) -> list:
    return [
        (render_expr(c.expr), c.cost, c.bytes_cost, c.cardinality)
        for c in result.candidates
    ]


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=target) for target in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def _join_graph(env, sql: str) -> str:
    expr = translate(env.sql(sql), env.view)
    while isinstance(expr, (Project, Select)):
        expr = expr.child
    return render_expr(expr)


def test_four_threads_plan_what_one_thread_plans():
    """4 threads × 50 distinct queries on one ``SiteEnv`` (shared planner
    and its table, shared intern table, call-local memos) at a 10 µs
    switch interval.  The queries come grouped by join graph, so the four
    lanes start together on one graph and race on each of its misses: the
    enumeration stage ends with one row per graph, and the stages of
    query shapes, rule-6 pushes and results with the serial run's
    rows."""
    env = university(UniversityConfig())
    groups: dict[str, list] = {}
    for sql in adhoc_queries(env)[::2][:200]:
        groups.setdefault(_join_graph(env, sql), []).append(sql)
    queries = [sql for group in groups.values() for sql in group]
    serial_env = university(UniversityConfig())
    serial = [_space(serial_env.plan(sql)) for sql in queries]
    results: dict[int, list] = {}
    errors: list[BaseException] = []
    start = threading.Barrier(4)

    def work(lane: int) -> None:
        try:
            start.wait(timeout=60)
            results[lane] = [
                _space(env.plan(sql)) for sql in queries[lane::4]
            ]
        except BaseException as exc:  # surfaced below, in the main thread
            errors.append(exc)

    def rows(planner, stage: str) -> list:
        return planner._table.rows(getattr(planner, stage))

    assert not rows(env.planner, "_enumerate") and len(groups) == 4
    _run_threads([lambda lane=lane: work(lane) for lane in range(4)])
    assert errors == []
    for lane in range(4):
        assert results[lane] == serial[lane::4]
    assert len(rows(env.planner, "_enumerate")) == len(groups)
    for stage in ("_shape", "_select", "_bind"):
        ours, serial = rows(env.planner, stage), rows(serial_env.planner, stage)
        assert len(ours) == len(serial), stage
    assert len(rows(env.planner, "_bind")) == len(queries)
    assert len(rows(env.planner, "_shape")) < len(queries)


def test_racing_constructors_agree_on_one_object():
    """Every thread builds the same 200 fresh trees at once: for each key
    all of them must come away holding the same object."""
    built: dict[int, list] = {}
    barrier = threading.Barrier(6)

    def build(lane: int) -> None:
        barrier.wait(timeout=60)
        nodes = []
        for i in range(200):
            scan = EntryPointScan(f"Race{i}")
            chain = scan.unnest(f"Race{i}.L").follow(f"Race{i}.L.f", "T")
            nodes.append(
                Join(chain, scan, ((f"T.x{i}", f"Race{i}.y"),)).where(
                    Predicate([Comparison("T.x", str(i)), In("T.y", ("1", "2"))])
                )
            )
        built[lane] = nodes

    _run_threads([lambda lane=lane: build(lane) for lane in range(6)])
    assert sorted(built) == list(range(6))
    for lane in range(1, 6):
        for mine, theirs in zip(built[0], built[lane]):
            assert mine is theirs
            assert all(
                a is b for (_, a), (_, b) in zip(walk(mine), walk(theirs))
            )
