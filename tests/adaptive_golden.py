"""The adaptive golden: every decision the adaptive executor takes.

``compute()`` executes every candidate plan of the QA suites (university,
bibliography, movies and the fuzzed sites 17 / 42 / 99) plus the two
skewed fuzz-42 scenarios of ``tests/test_adaptive.py`` under
``execution="adaptive"``, uncached, and records per run the prunes, the
switches, the pruned URLs, the pages and the answer digest.
``tests/test_adaptive_golden.py`` recomputes them and compares with the
committed ``adaptive_golden.json``, which was generated on the row
interpreter, before the adaptive executor moved to the compiled core, by

    PYTHONPATH=src python -m tests.adaptive_golden

from the repo root.  Equal records mean the port takes the same decisions
on the same observations.  Regenerate only with a sentence in CHANGES.md
saying which record moved and why.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.nested.relation import relation_digest
from repro.options import QueryOptions
from repro.qa.cli import build_site
from repro.sites import fuzzed

GOLDEN = Path(__file__).with_name("adaptive_golden.json")

QA_SITES = ("university", "bibliography", "movies", "fuzz:17", "fuzz:42", "fuzz:99")

#: tests/test_adaptive.py's Beta/Gamma pair query on fuzz seed 42
SKEW_SQL = (
    "SELECT BetaGamma.BetaName, Gamma.Info1 FROM BetaGamma, Gamma "
    "WHERE BetaGamma.GammaName = Gamma.GammaName"
)


def _skew_a():
    """Join → chase skew: 20 Gamma orphans grown after statistics."""
    env = fuzzed(42)
    env.site.grow("Gamma", 20)
    return env


def _skew_b():
    """Chase → join skew: one Beta grows 10 members plus 5 orphans."""
    env = fuzzed(42)
    beta = env.site.entities["Beta"][0].name
    env.site.grow("Gamma", 10, parent=beta)
    env.site.grow("Gamma", 5)
    return env


def suites():
    """``(site label, env, {query id: sql})`` in golden order."""
    for site in QA_SITES:
        env, queries = build_site(site)
        yield site, env, queries
    yield "skew:a", _skew_a(), {"beta_gamma": SKEW_SQL}
    yield "skew:b", _skew_b(), {"beta_gamma": SKEW_SQL}


def record(result) -> dict:
    """What the golden keeps of one adaptive execution."""
    report = result.adaptive
    return {
        "pages": result.pages,
        "digest": relation_digest(result.relation),
        "prunes": [
            [p.kind, p.link_attr, p.urls_before, p.urls_after]
            for p in report.prunes
        ],
        "switches": [
            [
                s.rule,
                s.crossover.chase_cost,
                s.crossover.join_cost,
                s.suffix,
                s.replanned,
            ]
            for s in report.switches
        ],
        "pruned_urls": sorted(report.pruned_urls),
    }


def compute() -> dict[str, dict]:
    """One record per ``site/query/p<index>``, every candidate plan."""
    options = QueryOptions(cache="off", execution="adaptive")
    out: dict[str, dict] = {}
    for site, env, queries in suites():
        for query_id, sql in queries.items():
            for index, candidate in enumerate(env.enumerate_plans(sql)):
                result = env.execute(candidate.expr, options=options)
                out[f"{site}/{query_id}/p{index}"] = record(result)
    return out


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(compute(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
