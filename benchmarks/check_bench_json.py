"""CI gate: benchmark results must exist, be sound, and not regress.

Each ``bench_*.py`` experiment records a ``BENCH_<id>.json`` under
``benchmarks/results/`` via :func:`_bench_utils.record`.  Dashboards and
regression tooling consume those files, so a benchmark silently losing its
emission (a refactor dropping ``data=``, an experiment renamed without
updating the registry) must fail the build — run this after the benchmark
suite::

    python -m pytest benchmarks -q --benchmark-disable
    python benchmarks/check_bench_json.py

Beyond structure, the gate diffs every *figure* the paper's cost model
cares about against the committed ``benchmarks/results/baseline.json``:

* **page figures** (any row key mentioning pages/downloads — the paper's
  cost measure C(E) — or wraps, pages parsed) must match the baseline
  *exactly*: simulated page counts are deterministic, so any drift is a
  behaviour change, not noise;
* **makespan figures** (simulated seconds) may improve freely but fail
  the gate when more than 10% above baseline;
* **CPU figures** (any key mentioning ``cpu`` — per-experiment
  ``cpu_seconds`` plus any explicit CPU columns) are real wall-clock
  process time and vary across machines, so the gate is deliberately
  loose: fail only beyond 2x baseline plus a one-second absolute slack.

After an intentional change (new column, new site shape, a genuine cost
improvement), regenerate and commit the baseline::

    python benchmarks/check_bench_json.py --write-baseline
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "baseline.json"

#: benchmark module -> the experiment ids it must have emitted
EXPECTED = {
    "bench_ablation": ["ABLATION", "ABLATION-stats"],
    "bench_adaptive": ["ADAPTIVE"],
    "bench_advisor": ["ADVISOR", "ADVISOR-SHARD"],
    "bench_cache": ["CACHE", "CACHE-PLAN"],
    "bench_concurrency": ["CONCURRENCY"],
    "bench_crossover": ["X-OVER"],
    "bench_example_7_1": ["EX-7.1", "EX-7.1-sweep"],
    "bench_example_7_2": ["EX-7.2"],
    "bench_fig2_plan": ["FIG-2"],
    "bench_intro_paths": ["EX-INTRO"],
    "bench_materialized": ["SEC-8"],
    "bench_optimizer": ["ALG-1"],
    "bench_scale": ["SCALE"],
    "bench_server": ["SERVER"],
    "bench_wrapper": ["WRAP"],
}

REQUIRED_KEYS = ("bench", "title", "schema", "rows", "metrics")

#: Row keys carrying page-count figures (the paper's C(E)): exact match.
PAGE_MARKERS = ("page", "download", "wrap")
#: Row keys carrying simulated-makespan figures: bounded regression.
SECONDS_MARKERS = ("seconds", "sim time")
#: Row keys carrying real process-CPU figures: loose regression.
CPU_MARKERS = ("cpu",)
#: A makespan may grow this much over baseline before the gate fails.
MAKESPAN_TOLERANCE = 1.10
#: CPU time is machine-dependent: fail only beyond this multiple of
#: baseline plus :data:`CPU_ABSOLUTE_SLACK` seconds.
CPU_TOLERANCE = 2.0
CPU_ABSOLUTE_SLACK = 1.0


def _figure_kind(key: str) -> Optional[str]:
    """Classify a row key as a gated figure, or None to ignore it."""
    lowered = key.lower()
    # CPU first: "cpu_seconds" contains a seconds marker and CPU table
    # columns end in " s", but both must get the loose CPU gate
    if any(marker in lowered for marker in CPU_MARKERS):
        return "cpu"
    if any(marker in lowered for marker in PAGE_MARKERS):
        return "pages"
    # page-cost columns by convention: C(...) estimates and the
    # estimated/measured C(E) pairs of the example reproductions
    if lowered in ("measured", "estimated") or "c(" in lowered:
        return "pages"
    if any(marker in lowered for marker in SECONDS_MARKERS):
        return "seconds"
    if lowered.endswith(" s"):
        return "seconds"
    return None


def _numeric(value) -> Optional[float]:
    """Benchmark rows format figures as strings ("4.98", "27"); parse
    leniently, returning None for non-numeric cells."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            return None
    return None


def extract_figures(document: dict) -> list[dict]:
    """The gated (page/makespan/CPU) figures of one BENCH document, row
    by row, in row order — plus one trailing pseudo-row carrying the
    experiment-level ``cpu_seconds``, so the CPU trajectory rides the
    same baseline diff as every per-row figure."""
    figures: list[dict] = []
    for row in document.get("rows", []):
        extracted: dict[str, float] = {}
        for key, value in row.items():
            if _figure_kind(key) is None:
                continue
            number = _numeric(value)
            if number is not None:
                extracted[key] = number
        figures.append(extracted)
    cpu_seconds = _numeric(document.get("cpu_seconds"))
    if cpu_seconds is not None:
        figures.append({"cpu_seconds": cpu_seconds})
    return figures


def _load_documents() -> dict[str, dict]:
    """Every parseable registered BENCH document, by experiment id."""
    documents: dict[str, dict] = {}
    for experiment_ids in EXPECTED.values():
        for experiment_id in experiment_ids:
            path = RESULTS_DIR / f"BENCH_{experiment_id}.json"
            if not path.exists():
                continue
            try:
                documents[experiment_id] = json.loads(path.read_text())
            except json.JSONDecodeError:
                continue  # reported by check()
    return documents


def write_baseline(path: pathlib.Path = BASELINE_PATH) -> dict:
    """Snapshot the current BENCH figures as the committed baseline."""
    baseline = {
        "makespan_tolerance": MAKESPAN_TOLERANCE,
        "benches": {
            experiment_id: extract_figures(document)
            for experiment_id, document in sorted(_load_documents().items())
        },
    }
    path.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n"
    )
    return baseline


def compare_baseline(
    baseline: dict, documents: dict[str, dict]
) -> list[str]:
    """Diff current figures against ``baseline``; returns the problems."""
    problems: list[str] = []
    tolerance = float(
        baseline.get("makespan_tolerance", MAKESPAN_TOLERANCE)
    )
    benches = baseline.get("benches", {})
    for experiment_id, document in sorted(documents.items()):
        expected_rows = benches.get(experiment_id)
        if expected_rows is None:
            problems.append(
                f"{experiment_id}: not in baseline.json "
                f"(run --write-baseline and commit the result)"
            )
            continue
        current_rows = extract_figures(document)
        if len(current_rows) != len(expected_rows):
            problems.append(
                f"{experiment_id}: {len(current_rows)} rows vs "
                f"{len(expected_rows)} in baseline"
            )
            continue
        for index, (current, expected) in enumerate(
            zip(current_rows, expected_rows)
        ):
            for key, base_value in expected.items():
                if key not in current:
                    problems.append(
                        f"{experiment_id} row {index}: figure {key!r} "
                        f"disappeared (baseline {base_value:g})"
                    )
                    continue
                value = current[key]
                kind = _figure_kind(key)
                if kind == "pages":
                    if value != base_value:
                        problems.append(
                            f"{experiment_id} row {index}: page figure "
                            f"{key!r} changed {base_value:g} -> {value:g} "
                            f"(page counts must match the baseline exactly)"
                        )
                elif kind == "cpu":
                    bound = base_value * CPU_TOLERANCE + CPU_ABSOLUTE_SLACK
                    if value > bound:
                        problems.append(
                            f"{experiment_id} row {index}: CPU figure "
                            f"{key!r} regressed {base_value:g}s -> "
                            f"{value:g}s (> {CPU_TOLERANCE:.1f}x baseline "
                            f"+ {CPU_ABSOLUTE_SLACK:.0f}s)"
                        )
                elif value > base_value * tolerance + 1e-9:
                    problems.append(
                        f"{experiment_id} row {index}: makespan {key!r} "
                        f"regressed {base_value:g} -> {value:g} "
                        f"(> {tolerance:.2f}x baseline)"
                    )
            for key in current:
                if key not in expected:
                    problems.append(
                        f"{experiment_id} row {index}: new figure {key!r} "
                        f"not in baseline (run --write-baseline and commit "
                        f"the result)"
                    )
    return problems


def check() -> list[str]:
    problems: list[str] = []
    for module, experiment_ids in sorted(EXPECTED.items()):
        for experiment_id in experiment_ids:
            path = RESULTS_DIR / f"BENCH_{experiment_id}.json"
            if not path.exists():
                problems.append(f"{module}: missing {path.name}")
                continue
            try:
                document = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                problems.append(f"{module}: {path.name} is not JSON ({exc})")
                continue
            for key in REQUIRED_KEYS:
                if key not in document:
                    problems.append(
                        f"{module}: {path.name} lacks the {key!r} key"
                    )
            if document.get("bench") != experiment_id:
                problems.append(
                    f"{module}: {path.name} claims bench="
                    f"{document.get('bench')!r}, expected {experiment_id!r}"
                )
            if not document.get("rows"):
                problems.append(f"{module}: {path.name} has no data rows")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="snapshot current BENCH figures as the committed baseline "
        "(refuses while structure checks fail)",
    )
    parser.add_argument(
        "--baseline", default=str(BASELINE_PATH), metavar="PATH",
        help="baseline file (default: benchmarks/results/baseline.json)",
    )
    parser.add_argument(
        "--skip-baseline", action="store_true",
        help="structure checks only, no regression diff",
    )
    args = parser.parse_args(argv)

    problems = check()
    emitted = sorted(p.name for p in RESULTS_DIR.glob("BENCH_*.json"))
    expected_names = {
        f"BENCH_{experiment_id}.json"
        for ids in EXPECTED.values()
        for experiment_id in ids
    }
    for name in emitted:
        if name not in expected_names:
            print(f"note: {name} emitted but not in the registry "
                  f"(add it to EXPECTED)")

    baseline_path = pathlib.Path(args.baseline)
    if args.write_baseline:
        if problems:
            for problem in problems:
                print(f"FAIL {problem}")
            print("refusing to write a baseline from a broken result set")
            return 1
        baseline = write_baseline(baseline_path)
        figures = sum(
            len(figure)
            for rows in baseline["benches"].values()
            for figure in rows
        )
        print(
            f"baseline written: {baseline_path} "
            f"({len(baseline['benches'])} benches, {figures} figures)"
        )
        return 0
    if not args.skip_baseline:
        if baseline_path.exists():
            problems += compare_baseline(
                json.loads(baseline_path.read_text()), _load_documents()
            )
        else:
            problems.append(
                f"baseline missing: {baseline_path} "
                f"(run --write-baseline and commit it)"
            )

    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        return 1
    print(f"ok: {len(expected_names)} BENCH_*.json files present and sound"
          + ("" if args.skip_baseline else "; figures match baseline"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
