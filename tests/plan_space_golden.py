"""The plan-space golden: digests of everything Algorithm 1 produces.

``compute()`` plans a fixed query corpus and returns one sha256 per section;
``tests/test_plan_space_golden.py`` recomputes them and compares with the
committed ``plan_space_golden.json``.  The committed file was generated
*before* the algebra was hash-consed (at commit 2db8cc5) by

    PYTHONPATH=src python -m tests.plan_space_golden

from the repo root, so equal digests mean candidate lists, ``generated``,
cost / bytes / cardinality, candidate order and rewrite lineage are the
parent's, byte for byte.  Regenerate only with a sentence in CHANGES.md
saying which section moved and why.

Corpus: every 20th query of ``perfbench``'s ad-hoc pool (416 distinct 3-
and 4-way joins on ``UniversityConfig()``), the ALG-1 and ABLATION
workloads, and the QA suites of university, bibliography, movies and the
fuzzed sites 17 / 42 / 99.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import NamedTuple, Optional

from repro import university
from repro.algebra.printer import render_expr
from repro.errors import OptimizerError
from repro.optimizer import CacheEstimate, Planner, PlannerOptions
from repro.qa.cli import build_site
from repro.sitegen import UniversityConfig

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("plan_space_golden.json")

ADHOC_STEP = 20
QA_SITES = ("university", "bibliography", "movies", "fuzz:17", "fuzz:42", "fuzz:99")


def _bench_queries() -> dict[str, str]:
    """ALG-1's and ABLATION's SQL, read from the benchmark modules."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import bench_ablation
        import bench_optimizer
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    queries = dict(bench_optimizer.WORKLOAD)
    queries.update(bench_ablation.QUERIES)
    return queries


def adhoc_queries(env) -> list[str]:
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.workloads import adhoc_pool
    finally:
        sys.path.remove(str(ROOT))
    pool = adhoc_pool(env.site.config, [dept.name for dept in env.site.depts])
    return [query.sql for query in pool[::ADHOC_STEP]]


def _warm_estimate(env) -> CacheEstimate:
    """A deterministic, uneven estimate: the i-th page-scheme (by name) is
    (i mod 4) / 4 cached, so cached and uncached routes re-rank."""
    names = sorted(env.scheme.page_schemes)
    return CacheEstimate(
        {name: (i % 4) / 4 for i, name in enumerate(names, start=1)},
        light_weight=0.25,
    )


class Call(NamedTuple):
    """One planning call of the golden: its section and label there, and
    what to plan."""

    section: str
    label: str
    env: object
    options: PlannerOptions
    sql: str
    estimate: Optional[CacheEstimate]
    traced: bool


def _space(result) -> tuple:
    return (
        result.generated,
        [
            (
                render_expr(c.expr),
                repr(c.cost),
                repr(c.bytes_cost),
                repr(c.cardinality),
            )
            for c in result.candidates
        ],
        repr(result.uncached_cost),
    )


def _lineage(result) -> tuple:
    trace = result.rewrite_trace
    return (
        [render_expr(c.expr) for c in result.candidates],
        [
            (s.phase, s.rule, s.result, s.parent, s.subexpr, repr(s.cost))
            for s in trace.steps
        ],
        [result.why(c) for c in result.candidates],
    )


def value(call: Call, planner: Planner) -> tuple:
    """What the golden records of ``call`` planned on ``planner``: the plan
    space, or a traced run's lineage.  A failed planning run (an ablated
    rule family can leave no valid plan) is part of the golden too."""
    parsed = call.env.sql(call.sql)
    try:
        result = planner.plan_query(parsed, call.estimate, trace=call.traced)
    except OptimizerError as exc:
        return ("no plan", str(exc))
    return _lineage(result) if call.traced else _space(result)


def fresh_planner(call: Call) -> Planner:
    return Planner(call.env.view, call.env.cost_model, call.options)


def _suite_calls(site: str, env, queries: dict[str, str]) -> list[Call]:
    """One site's suite under every configuration the golden covers."""
    warm = _warm_estimate(env)
    variants = [("all rules", PlannerOptions())] + [
        (f"no {f.name}", replace(PlannerOptions(), **{f.name: False}))
        for f in fields(PlannerOptions)
    ]
    found = []
    for label, sql in queries.items():
        for variant, options in variants:
            where = f"{site}/{label}/{variant}"
            found.append(Call(f"{site}:cold", where, env, options, sql, None, False))
            found.append(Call(f"{site}:warm", where, env, options, sql, warm, False))
        for name, estimate in (("cold", None), ("warm", warm)):
            where = f"{site}/{label}/{name}"
            found.append(
                Call(f"{site}:trace", where, env, PlannerOptions(), sql, estimate, True)
            )
    return found


def calls() -> list[Call]:
    """Every planning call of the golden, in the order its digests read
    them."""
    env = university(UniversityConfig())
    warm = _warm_estimate(env)
    found = []
    every = PlannerOptions()
    for index, sql in enumerate(adhoc_queries(env)):
        found.append(Call("adhoc:cold", sql, env, every, sql, None, False))
        if index % 4 == 0:
            found.append(Call("adhoc:warm", sql, env, every, sql, warm, False))
        if index % 16 == 0:
            found.append(Call("adhoc:trace", sql, env, every, sql, None, True))
    found += _suite_calls("bench", env, _bench_queries())
    for site in QA_SITES:
        site_env, queries = build_site(site)
        found += _suite_calls(site, site_env, queries)
    return found


def digests(planned: list[Call], values: list) -> dict[str, str]:
    """One sha256 per section over ``values``, the i-th from the i-th call."""
    hashes: dict[str, "hashlib._Hash"] = {}
    for call, found in zip(planned, values):
        digest = hashes.setdefault(call.section, hashlib.sha256())
        digest.update(repr((call.label, found)).encode("utf-8"))
    return {name: h.hexdigest() for name, h in sorted(hashes.items())}


def compute() -> dict[str, str]:
    """The golden's digests, each call planned on a planner of its own."""
    planned = calls()
    return digests(planned, [value(call, fresh_planner(call)) for call in planned])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
