"""The shape law: a query's plan space belongs to its shape.

C(E) reads no constant's value, only distinct counts, so Algorithm 1's
ranked candidate list for a query is its *shape's* — the query with each
distinct constant replaced by a placeholder — with the constants bound
back in.  An untraced ``plan_query`` plans shapes and binds; a traced one
plans the query itself and reads no table.  Both must answer alike:
same candidates (the same interned plans), same order, same figures.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import university
from repro.algebra.ast import Select
from repro.algebra.parser import parse_navigation
from repro.algebra.visitors import walk
from repro.optimizer import planner as planner_module
from repro.optimizer.planner import Planner
from repro.qa.cli import build_site
from repro.sitegen import UniversityConfig
from repro.views.conjunctive import ConjunctiveQuery, RelOccurrence
from repro.views.external import DefaultNavigation, ExternalRelation, ExternalView
from repro.views.sql import parse_query

from tests.plan_space_golden import _warm_estimate

ROOT = Path(__file__).resolve().parent.parent

#: every 16th query of the ad-hoc pool (the full pool is ~8 300 queries)
ADHOC_STEP = 16


def _adhoc_sample(env) -> list[str]:
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.workloads import adhoc_pool
    finally:
        sys.path.remove(str(ROOT))
    pool = adhoc_pool(env.site.config, [dept.name for dept in env.site.depts])
    return [query.sql for query in pool[::ADHOC_STEP]]


def _figures(result) -> list:
    return [(c.cost, c.bytes_cost, c.cardinality) for c in result.candidates]


def _same_plans(bound, concrete) -> None:
    """``bound`` (a shape's result, constants bound) is ``concrete`` (the
    query planned itself): candidate identity, order and figures."""
    assert len(bound.candidates) == len(concrete.candidates)
    assert [c.expr for c in bound.candidates] == [c.expr for c in concrete.candidates]
    assert all(b.expr is c.expr for b, c in zip(bound.candidates, concrete.candidates))
    assert _figures(bound) == _figures(concrete)
    assert bound.best is bound.candidates[0]
    assert bound.best.expr is concrete.best.expr
    assert bound.generated == concrete.generated
    assert bound.uncached_cost == concrete.uncached_cost
    assert bound.cache_estimate == concrete.cache_estimate


def _agree(env, queries, warm_every: int = 1) -> int:
    """Every query cold, and every ``warm_every``-th under a warm estimate
    too, on the environment's long-lived planner against a traced run;
    returns how many queries had constants to bind."""
    warm = _warm_estimate(env)
    bound = 0
    for index, sql in enumerate(queries):
        query = env.sql(sql)
        bound += bool(planner_module._shape_of(query)[1])
        for estimate in (None, warm) if index % warm_every == 0 else (None,):
            shaped = env.planner.plan_query(query, estimate)
            traced = env.planner.plan_query(query, estimate, trace=True)
            _same_plans(shaped, traced)
    return bound


def test_the_adhoc_sample_plans_as_the_concrete_queries():
    env = university(UniversityConfig())
    queries = _adhoc_sample(env)
    assert len(queries) > 500
    assert _agree(env, queries, warm_every=4) > 400


@pytest.mark.parametrize("site", ["university", "bibliography", "movies"])
def test_the_qa_suites_plan_as_the_concrete_queries(site):
    env, queries = build_site(site)
    _agree(env, queries.values())


# --------------------------------------------------------------------- #
# shapes and bindings
# --------------------------------------------------------------------- #

SELF_JOIN = (
    "SELECT a.PName FROM ProfDept a, ProfDept b WHERE a.PName = b.PName "
    "AND a.DName = {0} AND b.DName = {1}"
)


def _shape(env, sql):
    return planner_module._shape_of(env.sql(sql))


def test_equal_constants_share_one_placeholder(uni_env):
    shape, binding = _shape(uni_env, SELF_JOIN.format("'Physics'", "'Physics'"))
    assert list(binding.values()) == ["Physics"]
    (_, first), (_, second) = shape.constants
    assert first == second
    other, _ = _shape(uni_env, SELF_JOIN.format("'Physics'", "'Mathematics'"))
    assert other != shape  # two placeholders: another shape
    query = uni_env.sql(SELF_JOIN.format("'Physics'", "'Physics'"))
    _same_plans(
        Planner(uni_env.view, uni_env.cost_model).plan_query(query),
        uni_env.planner.plan_query(query, trace=True),
    )


def test_in_lists_keep_their_arity_duplicates_included(uni_env):
    """The IN selectivity counts ``len(values)``: ``IN ('Full', 'Full')``
    is another shape than ``IN ('Full')``, and priced as planned."""
    sql = "SELECT PName FROM Professor WHERE Rank IN ({})"
    twice, binding = _shape(uni_env, sql.format("'Full', 'Full'"))
    once, _ = _shape(uni_env, sql.format("'Full'"))
    ((_, values),) = twice.memberships
    assert len(values) == 2 and len(set(values)) == 1 and len(binding) == 1
    assert twice != once
    planner = Planner(uni_env.view, uni_env.cost_model)
    for query in (sql.format("'Full', 'Full'"), sql.format("'Full'")):
        query = uni_env.sql(query)
        _same_plans(planner.plan_query(query), planner.plan_query(query, trace=True))
    doubled = planner.plan_query(uni_env.sql(sql.format("'Full', 'Full'")))
    single = planner.plan_query(uni_env.sql(sql.format("'Full'")))
    assert doubled.best.cardinality > single.best.cardinality


def test_a_constant_that_looks_like_a_placeholder(uni_env):
    """A placeholder's text as a constant is a constant like any other:
    planned after its shape's siblings, it binds to itself."""
    planner = Planner(uni_env.view, uni_env.cost_model)
    plain = uni_env.sql(SELF_JOIN.format("'Physics'", "'Mathematics'"))
    looks = uni_env.sql(SELF_JOIN.format("'\x001'", "'\x000'"))
    assert planner_module._shape_of(looks)[0] == planner_module._shape_of(plain)[0]
    planner.plan_query(plain)
    planned = planner.plan_query(looks)
    _same_plans(planned, planner.plan_query(looks, trace=True))
    constants = {
        atom.value
        for _, node in walk(planned.best.expr)
        if isinstance(node, Select)
        for atom in node.predicate.atoms
    }
    assert constants == {"\x001", "\x000"}


def test_a_constant_of_the_view_is_no_placeholder(uni_env):
    """A default navigation may select on a constant of its own: the shape
    keeps it, and binding leaves it as it is."""
    nav = parse_navigation("ProfListPage.ProfList->ToProf", uni_env.scheme)
    body = nav.select_eq("ProfPage.Rank", "Full")
    mapping = {"PName": "ProfPage.PName", "email": "ProfPage.email"}
    senior = ExternalRelation(
        "Senior", ("PName", "email"), (DefaultNavigation.of(body, mapping),)
    )
    view = ExternalView(uni_env.scheme)
    view.add(senior)
    planner = Planner(view, uni_env.cost_model)
    sql = "SELECT PName FROM Senior WHERE email = '{}-lovelace@univ.example'"
    for name, answer in (("alan", []), ("ada", ["Ada Lovelace"])):
        query = parse_query(sql.format(name), view)
        planned = planner.plan_query(query)
        _same_plans(planned, planner.plan_query(query, trace=True))
        rows = uni_env.execute(planned.best.expr).relation
        assert [row["PName"] for row in rows] == answer


def test_a_repeated_query_is_one_result(uni_env):
    """The table in front of the shape table: a repeated query — even one
    parsed anew — is a lookup, and the same result object."""
    planner = Planner(uni_env.view, uni_env.cost_model)
    sql = SELF_JOIN.format("'Physics'", "'Mathematics'")
    first = planner.plan_query(uni_env.sql(sql))
    assert planner.plan_query(uni_env.sql(sql)) is first
    estimate = _warm_estimate(uni_env)
    warm = planner.plan_query(uni_env.sql(sql), estimate)
    assert warm is not first
    assert planner.plan_query(uni_env.sql(sql), estimate) is warm


def test_len_of_the_candidates_binds_nothing(uni_env, monkeypatch):
    """Only ``best`` is bound when planned; the other candidates on first
    read, which ``len`` is not."""
    calls = []
    bind = planner_module.bind_constants

    def counted(expr, binding, nodes):
        calls.append(expr)
        return bind(expr, binding, nodes)

    monkeypatch.setattr(planner_module, "bind_constants", counted)
    planner = Planner(uni_env.view, uni_env.cost_model)
    planner.plan_query(uni_env.sql(SELF_JOIN.format("'Physics'", "'Biology'")))
    result = planner.plan_query(uni_env.sql(SELF_JOIN.format("'Physics'", "'Art'")))
    planned = len(calls)
    assert planned >= 1
    assert len(result.candidates) > 1
    assert len(calls) == planned
    candidates = list(result.candidates)
    assert len(calls) > planned
    assert result.best is candidates[0]
    assert result.candidates == candidates


# --------------------------------------------------------------------- #
# the memo keys queries by value
# --------------------------------------------------------------------- #

TWO_CONSTANTS = (
    "SELECT PName FROM Professor WHERE Professor.Rank = 'Full' "
    "AND Professor.email = 'ada-lovelace@univ.example'"
)
#: one constant, ``Full' AND Professor.email = 'ada-lovelace@univ.example``,
#: which an unescaped rendering prints exactly like ``TWO_CONSTANTS``
ONE_CONSTANT = (
    "SELECT PName FROM Professor WHERE Professor.Rank = 'Full'' "
    "AND Professor.email = ''ada-lovelace@univ.example'"
)


def test_a_quote_in_a_constant_is_another_query():
    env = university(UniversityConfig())
    one, two = env.sql(ONE_CONSTANT), env.sql(TWO_CONSTANTS)
    assert len(one.constants) == 1 and len(two.constants) == 2
    assert [row["PName"] for row in env.query(two).relation] == ["Ada Lovelace"]
    assert len(env.query(one).relation) == 0  # no rank is that string
    assert env.plan(one).best.expr is not env.plan(two).best.expr
    assert str(one) != str(two)


_CONSTANT = st.text() | st.text(alphabet="'a ,()=")


@settings(max_examples=60, deadline=None)
@given(rank=_CONSTANT, emails=st.lists(_CONSTANT, min_size=1, max_size=3))
def test_a_query_prints_as_sql_that_reads_it_back(uni_env, rank, emails):
    query = ConjunctiveQuery(
        head=(("PName", "Professor.PName"),),
        occurrences=(RelOccurrence("Professor", "Professor"),),
        constants=(("Professor.Rank", rank),),
        memberships=(("Professor.email", tuple(emails)),),
    )
    assert uni_env.sql(str(query)) == query
