"""Command line of the benchmark.

``--workload NAME`` runs that workload in this process and prints the result
object as the last line of standard output (``BENCHMARK.json``'s contract).
Without it the whole set runs, one fresh subprocess per workload and pass,
at fixed operation counts; a table is printed and
``perfbench/results/latest.json`` written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import RESULTS

ROOT = Path(__file__).resolve().parent.parent

#: ``--quick`` runs this share of each workload's operation count, the
#: traced pass of the full set this share of it.
QUICK_SHARE = 0.10
TRACED_SHARE = 0.25


def load_program() -> None:
    """Make ``repro`` importable from this checkout's ``src/`` — and only
    from there: a copy installed elsewhere is not the program under test."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, not {ROOT}/src")


def run_one(args) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # hash randomisation lays dicts and sets out differently on every
        # start; pin it so two runs of one seed do the same work the same way
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
    if args.ops is None and args.seconds is None:
        raise SystemExit("--workload needs --seconds or --ops")
    start = time.perf_counter()
    load_program()
    from perfbench import runner

    result = runner.run_workload(
        args.workload,
        args.seed,
        seconds=args.seconds,
        ops=args.ops,
        trace=bool(args.trace),
        import_s=time.perf_counter() - start,
    )
    for problem in result.pop("problems"):
        print(problem, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --------------------------------------------------------------------- #
# the full set
# --------------------------------------------------------------------- #


def spawn(workload: str, seed: int, ops: int, trace: int) -> dict:
    """One workload pass in a fresh interpreter, so planner memo, page
    cache, ``METRICS`` and peak RSS never leak between workloads."""
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", workload,
         "--seed", str(seed), "--ops", str(ops), "--trace", str(trace)],
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: no result (exit code {done.returncode})")
    return json.loads(lines[-1])


def run_set(seed: int, share: float, trace: bool) -> dict:
    """``{workload: {metric: {"value", "unit"}}}`` for one full set."""
    from perfbench.workloads import WORKLOADS

    table: dict = {}
    for name, workload in WORKLOADS.items():
        ops = max(1, round(workload.ops * share))
        result = spawn(name, seed, ops, trace=0)
        metrics = dict(result["metrics"])
        attempted, failed = result["attempted"], result["failed"]
        if trace:
            traced = spawn(name, seed, max(1, round(ops * TRACED_SHARE)), trace=1)
            metrics.update(traced["metrics"])
            attempted += traced["attempted"]
            failed += traced["failed"]
            result["correct"] &= traced["correct"]
        metrics["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
        metrics["latency_samples"] = {"value": result["attempted"], "unit": "count"}
        table[name] = {"correct": result["correct"], "metrics": metrics}
        for metric, cell in metrics.items():
            print(f"{name} {metric} {cell['value']:.6g} {cell['unit']}", flush=True)
    return table


def spreads(sets: list[dict], spec: dict) -> bool:
    """Print, per workload and end-to-end metric, how far repeated sets
    on one seed disagree; False when any exceeds its bound (a count must
    repeat exactly)."""
    from perfbench.compare import COUNTS, rules

    agree = True
    for name, (_, bound) in rules(spec).items():
        for workload in sets[0]:
            if name not in sets[0][workload]["metrics"]:
                continue  # a per-layer count, and the sets ran untraced
            values = [s[workload]["metrics"][name]["value"] for s in sets]
            spread = (max(values) - min(values)) / (statistics.median(values) or 1)
            limit = 0.0 if name in COUNTS else bound
            verdict = "ok" if spread <= limit else "DISAGREE"
            agree &= spread <= limit
            print(
                f"repeat {workload} {name} spread {spread:.4f} "
                f"of median (bound {limit:g}) {verdict}"
            )
    return agree


def main() -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__)
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="length of the timed phase")
    parser.add_argument("--ops", type=int, help="fixed operation count instead")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1: per-layer metrics from the traced run "
                             "(full set: default 1, both passes)")
    parser.add_argument("--quick", action="store_true",
                        help="full set at 10%% of each operation count")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full set this many times on one seed; fail "
                             "unless the sets agree within the bounds")
    args = parser.parse_args()
    if args.workload:
        return run_one(args)

    load_program()
    share = QUICK_SHARE if args.quick else 1.0
    sets = [run_set(args.seed, share, trace=args.trace != 0)
            for _ in range(args.repeat)]
    RESULTS.mkdir(exist_ok=True)
    latest = {"seed": args.seed, "quick": args.quick, "workloads": sets[-1]}
    (RESULTS / "latest.json").write_text(json.dumps(latest, indent=1))
    ok = all(row["correct"] for table in sets for row in table.values())
    if args.repeat > 1:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        ok &= spreads(sets, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
