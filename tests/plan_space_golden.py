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


def _space(planner, parsed, estimate=None) -> tuple:
    """The plan space of one query; a failed planning run (an ablated
    rule family can leave no valid plan) is part of the golden too."""
    try:
        result = planner.plan_query(parsed, estimate)
    except OptimizerError as exc:
        return ("no plan", str(exc))
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


class _Sections:
    def __init__(self) -> None:
        self._hashes: dict[str, "hashlib._Hash"] = {}

    def add(self, section: str, label: str, value) -> None:
        digest = self._hashes.setdefault(section, hashlib.sha256())
        digest.update(repr((label, value)).encode("utf-8"))

    def digests(self) -> dict[str, str]:
        return {name: h.hexdigest() for name, h in sorted(self._hashes.items())}


def _plan_suite(out: _Sections, site: str, env, queries: dict[str, str]) -> None:
    """One site's suite under every configuration the golden covers."""
    warm = _warm_estimate(env)
    variants = [("all rules", PlannerOptions())] + [
        (f"no {f.name}", replace(PlannerOptions(), **{f.name: False}))
        for f in fields(PlannerOptions)
    ]
    for label, sql in queries.items():
        parsed = env.sql(sql)
        for variant, options in variants:
            planner = Planner(env.view, env.cost_model, options)
            where = f"{site}/{label}/{variant}"
            out.add(f"{site}:cold", where, _space(planner, parsed))
            out.add(f"{site}:warm", where, _space(planner, parsed, warm))
        planner = Planner(env.view, env.cost_model)
        for name, estimate in (("cold", None), ("warm", warm)):
            traced = planner.plan_query(parsed, estimate, trace=True)
            where = f"{site}/{label}/{name}"
            out.add(f"{site}:trace", where, _lineage(traced))


def compute() -> dict[str, str]:
    out = _Sections()
    env = university(UniversityConfig())
    warm = _warm_estimate(env)
    for index, sql in enumerate(adhoc_queries(env)):
        parsed = env.sql(sql)
        out.add("adhoc:cold", sql, _space(env.planner, parsed))
        if index % 4 == 0:
            out.add("adhoc:warm", sql, _space(env.planner, parsed, warm))
        if index % 16 == 0:
            traced = env.planner.plan_query(parsed, trace=True)
            out.add("adhoc:trace", sql, _lineage(traced))
    _plan_suite(out, "bench", env, _bench_queries())
    for site in QA_SITES:
        site_env, queries = build_site(site)
        _plan_suite(out, site, site_env, queries)
    return out.digests()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
