"""Execution engines for NALG plans.

One executor core evaluates every plan: :mod:`repro.engine.compile`
compiles it once per plan and scheme (schemas, column offsets, tuple builders)
and the kernels of :mod:`repro.engine.columnar` run it over column
batches.  What varies is where pages come from and how fetches are
scheduled; the modes are listed once, at
:data:`~repro.engine.pipeline.EXECUTION_MODES` (docs/ENGINE.md).

* :mod:`repro.engine.session` — per-query page cache and accounting (the
  paper counts *pages downloaded*; an engine never re-fetches a page it
  already holds for the current query), batch-first so follow-link target
  sets fetch through the client's concurrent worker pool;
* :mod:`repro.engine.remote` — evaluates computable plans against the live
  (simulated) web through wrappers: this is the virtual-view path of
  Sections 5–7;
* :mod:`repro.engine.local` — the staged executor over a page-relation
  provider; the live web and the materialized store of Section 8 both
  plug in here;
* :mod:`repro.engine.pipeline` — chunked, pipelined evaluation with
  non-speculative link prefetch over one shared timeline: identical pages
  and answers, lower simulated makespan;
* :mod:`repro.engine.adaptive` — runtime relevance pruning and
  mid-query pointer-join ↔ pointer-chase switching on the staged
  executor: identical answers, never more pages than the static plan.
"""

from repro.engine.session import QuerySession
from repro.engine.remote import ExecutionResult, RemoteExecutor
from repro.engine.adaptive import AdaptiveExecutor, AdaptiveReport
from repro.engine.local import LocalExecutor, PageRelationProvider, qualify_row
from repro.engine.columnar import ColumnBatch
from repro.engine.compile import CompiledPlan, compile_plan
from repro.engine.pipeline import (
    EXECUTION_MODES,
    PipelineConfig,
    PipelinedExecutor,
    PrefetchScheduler,
    coerce_execution,
)

__all__ = [
    "QuerySession",
    "ExecutionResult",
    "RemoteExecutor",
    "AdaptiveExecutor",
    "AdaptiveReport",
    "LocalExecutor",
    "PageRelationProvider",
    "qualify_row",
    "ColumnBatch",
    "CompiledPlan",
    "compile_plan",
    "EXECUTION_MODES",
    "PipelineConfig",
    "PipelinedExecutor",
    "PrefetchScheduler",
    "coerce_execution",
]
