"""A/B comparer for two commits' benchmark results.

    python3 -m perfbench.compare --parent A1.json A2.json ... --change B1.json B2.json ...

Each file is the ``latest.json`` of one full set; the i-th parent file is
paired with the i-th change file (run the pairs alternating which side goes
first, ten or more of them).  Per workload and metric one row is printed:

* ``improved`` — the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the spread between
  the parent's own runs (its inter-quartile distance);
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` — neither, but the parent's spread is wider than the bound
  and not every run of the change beats every run of the parent;
* ``unchanged`` — otherwise.

Counts made by the program (pages, light connections, simulated seconds,
failures) repeat exactly, so they are compared exactly, pair by pair: any
pair worse is ``regressed``, else any pair better is ``improved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: Metrics that are counts of the program's own accounting.
COUNTS = {
    "pages_per_query",
    "sim_s_per_query",
    "failed_ratio",
    "web.light_per_query",
}


def verdict(parent: list, change: list, better: str, bound: float, exact: bool):
    """``(verdict, wins, losses, parent IQR)`` for one workload x metric."""
    sign = 1 if better == "higher" else -1
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(gain > 0 for gain in gains)
    losses = sum(gain < 0 for gain in gains)
    if exact:
        word = "regressed" if losses else "improved" if wins else "unchanged"
        return word, wins, losses, 0.0
    base = statistics.median(parent)
    gap = sign * (statistics.median(change) - base)
    quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else [base] * 3
    spread = quartiles[2] - quartiles[0]
    if wins >= 0.9 * len(gains) and gap > spread:
        word = "improved"
    elif -gap > bound * abs(base):
        word = "regressed"
    elif spread > bound * abs(base) and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        word = "unresolved"
    else:
        word = "unchanged"
    return word, wins, losses, spread


def rules(spec: dict) -> dict[str, tuple[str, float]]:
    """``metric -> (better, bound)``: the end-to-end metrics of
    ``BENCHMARK.json`` plus the counts it cannot hold (they may be 0)."""
    found = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for name in sorted(COUNTS - found.keys()):
        found[name] = ("lower", 0.0)
    return found


def _values(files: list[dict], workload: str, name: str) -> list:
    return [f["workloads"][workload]["metrics"][name]["value"] for f in files]


def compare(parents: list[dict], changes: list[dict], spec: dict) -> list[str]:
    rows = []
    for workload in parents[0]["workloads"]:
        for name, (better, bound) in rules(spec).items():
            cell = parents[0]["workloads"][workload]["metrics"].get(name)
            if cell is None:  # per-layer count from a set run without --trace
                continue
            parent = _values(parents, workload, name)
            change = _values(changes, workload, name)
            word, wins, losses, spread = verdict(
                parent, change, better, bound, exact=name in COUNTS
            )
            base, new = statistics.median(parent), statistics.median(change)
            ratio = f"{new / base:.4f}" if base else "n/a"
            rows.append(
                f"{word:10s} {workload} {name}: change {new:.6g} / parent "
                f"{base:.6g} {cell['unit']} = {ratio}; change better in "
                f"{wins}, worse in {losses} of {len(parent)} pairs; parent "
                f"IQR {spread:.4g}, bound {bound:g}"
            )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench.compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    args = parser.parse_args()
    if len(args.parent) != len(args.change):
        parser.error("--parent and --change take the same number of files")
    spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    rows = compare(
        [json.loads(path.read_text()) for path in args.parent],
        [json.loads(path.read_text()) for path in args.change],
        json.loads(spec_path.read_text()),
    )
    print("\n".join(rows))
    return 1 if any(row.startswith("regressed") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
