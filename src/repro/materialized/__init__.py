"""Materialized views with lazy incremental maintenance (paper, Section 8).

The ADM representation of the site is materialized locally: the whole site
is crawled once, pages are wrapped, and tuples are stored per page-scheme
with their access dates.  Queries are then answered from the store — but
before a tuple is used, a *light connection* (HEAD) verifies its page has
not changed; stale pages are re-downloaded on the spot.  Answering queries
thereby also maintains the view, touching only the minimal set of pages the
chosen plan needs.

* :mod:`repro.materialized.store` — the store + Function 2 (``URLCheck``),
  optionally partitioned by URL hash (``shards=N``, one refresh batch per
  shard);
* :mod:`repro.materialized.evaluate` — Algorithm 3 (query evaluation with
  lazy maintenance) via the local executor;
* :mod:`repro.materialized.maintenance` — deferred ``CheckMissing``
  processing, full refresh, batched shard-parallel refresh, and
  consistency reporting;
* :mod:`repro.materialized.advisor` — workload-driven selection of *which*
  page-schemes to materialize under a page budget.
"""

from repro.materialized.store import MaterializedStore, StoredPage, Status
from repro.materialized.evaluate import MaterializedEngine, MaterializedResult
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
    "StoredPage",
    "Status",
    "MaterializedEngine",
    "MaterializedResult",
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
