"""Materialized views with lazy incremental maintenance (paper, Section 8).

The ADM representation of the site is materialized locally: the whole site
is crawled once, pages are wrapped and stored.  Queries are then answered
from the store — but before a tuple is used, a *light connection* (HEAD)
verifies its page has not changed; stale pages are re-downloaded on the
spot.  Answering queries thereby also maintains the view, touching only the
minimal set of pages the chosen plan needs.

* :mod:`repro.materialized.store` — the store + Function 2 (``URLCheck``);
  its module docstring says how the pages are kept (one page set with the
  page cache, :mod:`repro.web.cache`);
* :mod:`repro.materialized.evaluate` — Algorithm 3 (query evaluation with
  lazy maintenance) via the local executor, answering an
  :class:`~repro.engine.remote.ExecutionResult` like the virtual path;
* :mod:`repro.materialized.maintenance` — deferred ``CheckMissing``
  processing, full refresh, batched shard-parallel refresh, and
  consistency reporting;
* :mod:`repro.materialized.advisor` — workload-driven selection of *which*
  page-schemes to materialize under a page budget.
"""

from repro.materialized.store import MaterializedStore, Status
from repro.materialized.evaluate import MaterializedEngine
from repro.materialized.maintenance import (
    process_check_missing,
    full_refresh,
    batch_refresh,
    consistency_report,
    RefreshReport,
    ShardRefresh,
)
from repro.materialized.advisor import (
    AdvisorReport,
    ViewCandidate,
    WorkloadQuery,
    advise,
    random_view_set,
    scheme_download_profile,
)

__all__ = [
    "MaterializedStore",
    "Status",
    "MaterializedEngine",
    "process_check_missing",
    "full_refresh",
    "batch_refresh",
    "consistency_report",
    "RefreshReport",
    "ShardRefresh",
    "AdvisorReport",
    "ViewCandidate",
    "WorkloadQuery",
    "advise",
    "random_view_set",
    "scheme_download_profile",
]
