"""perfbench — the repo's end-to-end + per-layer real-time benchmark.

Run one workload (the contract ``BENCHMARK.json`` names)::

    python3 -m perfbench --workload nav_cold --seed 1 --seconds 12 --trace 0

or the whole set, with a table and ``perfbench/results/latest.json``::

    python3 -m perfbench --seed 1 [--quick] [--repeat 2]

See ``perfbench/README.md`` for why each workload exists and which
end-to-end metric each layer metric is expected to move.
"""

from pathlib import Path

#: The only place the benchmark writes: ``latest.json`` and the traces.
RESULTS = Path(__file__).resolve().parent / "results"
