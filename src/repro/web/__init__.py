"""Simulated web substrate.

The paper's cost model counts only network interactions: full page downloads
(GETs) and, for materialized-view maintenance, "light connections" that
exchange just an error flag and the last-modification date (HEADs).  This
package provides an in-process web that measures exactly those quantities:

* :mod:`repro.web.resources` — a served resource (HTML + last-modified);
* :mod:`repro.web.server` — URL → resource mapping with a mutation API that
  bumps modification dates (the autonomous "site manager"), plus a
  :class:`FaultPolicy` injecting deterministic transient failures;
* :mod:`repro.web.client` — GET/HEAD client with an :class:`AccessLog`, a
  concurrent batched fetch engine (:meth:`WebClient.get_batch`) governed by
  :class:`FetchConfig`, and transparent :class:`RetryPolicy` retries; a
  batch is resolved against the cache and accounted once, not per URL;
* :mod:`repro.web.cache` — the cross-query LRU :class:`PageCache`
  (optionally URL-hash partitioned, ``shards=N``) with its
  :class:`CachePolicy` (off / per-query / cross-query light-connection
  revalidation, in :meth:`WebClient.revalidate` runs), and the
  :class:`SingleFlight` in-flight download dedup.
"""

from repro.web.resources import HeadResponse, WebResource
from repro.web.server import FaultPolicy, SimulatedWebServer
from repro.web.cache import (
    CacheEntry,
    CachePolicy,
    CacheStats,
    Freshness,
    NO_CACHE,
    PageCache,
    SingleFlight,
    freshness_from_head,
    shard_of,
)
from repro.web.client import (
    AccessLog,
    CostSummary,
    DEFAULT_RETRY_POLICY,
    FetchConfig,
    FetchRecord,
    NO_RETRY,
    RetryPolicy,
    WebClient,
)
from repro.web.network import NetworkModel, MODEM_1998

__all__ = [
    "WebResource",
    "HeadResponse",
    "SimulatedWebServer",
    "FaultPolicy",
    "WebClient",
    "AccessLog",
    "CostSummary",
    "FetchConfig",
    "FetchRecord",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "NO_RETRY",
    "NetworkModel",
    "MODEM_1998",
    "PageCache",
    "CachePolicy",
    "CacheEntry",
    "CacheStats",
    "Freshness",
    "SingleFlight",
    "freshness_from_head",
    "shard_of",
    "NO_CACHE",
]
