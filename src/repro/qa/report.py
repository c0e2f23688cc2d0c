"""Machine-readable conformance reports for the QA matrix.

A report is one JSON document per oracle run: the matrix definition, one
record per executed cell, and every violation found.  Each cell carries a
stable ``cell id`` — ``query/p<plan>/<cache>/<fault>/w<workers>[/<exec>]``
(the exec component appears only for non-staged execution modes) — from
which the exact execution can be reproduced::

    python -m repro.qa --site movies --seed 7 \\
        --cell q_join/p1/cross_query_warm/transient/w4

(see ``docs/TESTING.md`` for the full recipe, including how to pin a
found violation as a regression test).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

__all__ = ["CellRecord", "ConformanceReport", "summary_path"]


def summary_path(path: str) -> str:
    """The compact-summary path written alongside a full report."""
    base = path[:-5] if path.endswith(".json") else path
    return f"{base}-summary.json"


@dataclass
class CellRecord:
    """The outcome of one matrix cell (one plan execution)."""

    cell_id: str
    query_id: str
    plan_index: int
    cache_mode: str
    fault_mode: str
    workers: int
    ok: bool
    #: execution strategy the cell ran under (one of
    #: :data:`repro.qa.oracle.EXEC_MODES`)
    exec_mode: str = "staged"
    #: cell was expected to abort with RetriesExhaustedError, and did
    expected_failure: bool = False
    rows: Optional[int] = None
    #: stable digest of the canonical relation (equality across cells ⇔
    #: identical answers); None when the cell expectedly failed
    relation_digest: Optional[str] = None
    pages: float = 0.0
    light_connections: float = 0.0
    bytes: float = 0.0
    attempts: float = 0.0
    cache_hits: float = 0.0
    revalidations: float = 0.0
    pages_saved: float = 0.0
    #: pages handed over by the multi-query server's shared navigator
    #: (``server`` exec cells only; 0 elsewhere)
    pages_shared: float = 0.0
    simulated_seconds: float = 0.0
    plan_text: str = ""
    violations: list = field(default_factory=list)
    #: number of spans the cell's tracer recorded (None: untraced run)
    trace_spans: Optional[int] = None
    #: rendered span tree, attached when a traced cell found violations
    trace_excerpt: Optional[str] = None


@dataclass
class ConformanceReport:
    """Everything one ``repro.qa`` run measured, JSON-round-trippable."""

    site: str
    seed: int
    shard_index: int = 0
    shard_count: int = 1
    total_cells: int = 0
    queries: dict = field(default_factory=dict)
    cells: list = field(default_factory=list)

    @property
    def cells_run(self) -> int:
        return len(self.cells)

    @property
    def violations(self) -> list[str]:
        """Every violation across all cells, prefixed with its cell id."""
        out = []
        for cell in self.cells:
            for violation in cell.violations:
                out.append(f"{cell.cell_id}: {violation}")
        return out

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        return {
            "site": self.site,
            "seed": self.seed,
            "shard": f"{self.shard_index}/{self.shard_count}",
            "total_cells": self.total_cells,
            "cells_run": self.cells_run,
            "ok": self.ok,
            "violations": self.violations,
            "queries": dict(self.queries),
            "cells": [asdict(cell) for cell in self.cells],
        }

    def digest(self) -> str:
        """Stable digest over the executed cells: id, outcome, answer.

        Two runs of the same shard agree iff their digests agree, so
        summaries are comparable without shipping the multi-megabyte full
        report."""
        payload = repr(
            sorted(
                (cell.cell_id, cell.ok, cell.relation_digest, cell.rows)
                for cell in self.cells
            )
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def summary_json(self) -> dict:
        """The compact machine-readable summary (no per-cell payloads)."""
        return {
            "site": self.site,
            "seed": self.seed,
            "shard": f"{self.shard_index}/{self.shard_count}",
            "total_cells": self.total_cells,
            "cells_run": self.cells_run,
            "ok": self.ok,
            "violation_count": len(self.violations),
            "violations": self.violations[:50],
            "digest": self.digest(),
        }

    def write(self, path: str) -> str:
        """Write the full report plus a ``...-summary.json`` beside it.

        Full reports are work products (gitignored — they run to
        megabytes); the compact summary is small enough to commit as the
        run's durable record."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        with open(summary_path(path), "w") as handle:
            json.dump(self.summary_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "ConformanceReport":
        with open(path) as handle:
            data = json.load(handle)
        shard_index, _, shard_count = data.get("shard", "0/1").partition("/")
        report = cls(
            site=data["site"],
            seed=data["seed"],
            shard_index=int(shard_index),
            shard_count=int(shard_count or 1),
            total_cells=data.get("total_cells", 0),
            queries=dict(data.get("queries", {})),
        )
        for raw in data.get("cells", []):
            report.cells.append(CellRecord(**raw))
        return report

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #

    def summary(self) -> str:
        lines = [
            f"conformance: site={self.site} seed={self.seed} "
            f"shard={self.shard_index}/{self.shard_count} — "
            f"{self.cells_run} of {self.total_cells} matrix cells run, "
            f"{len(self.violations)} violation(s)"
        ]
        digests: dict[str, set] = {}
        for cell in self.cells:
            if cell.relation_digest is not None:
                digests.setdefault(cell.query_id, set()).add(
                    cell.relation_digest
                )
        for query_id in sorted(self.queries):
            seen = digests.get(query_id, set())
            mark = "≡" if len(seen) <= 1 else "≠"
            cells = [c for c in self.cells if c.query_id == query_id]
            lines.append(
                f"  {mark} {query_id}: {len(cells)} cells, "
                f"{len(seen)} distinct answer(s)"
            )
        for violation in self.violations[:20]:
            lines.append(f"  VIOLATION {violation}")
        if len(self.violations) > 20:
            lines.append(f"  ... {len(self.violations) - 20} more")
        return "\n".join(lines)
