"""Advisor-driven cache warm-up for the multi-query server.

:func:`warm_cache` runs the materialization advisor
(:mod:`repro.materialized.advisor`) over a workload, then crawls the site
(:func:`~repro.adm.links.crawl`), fetching each level as one k-lane batch:
pages of the advisor-chosen schemes go *through* the environment's
cross-query :class:`~repro.web.cache.PageCache` (so the next query finds
them warm — one light-connection revalidation, zero downloads, the §8
saving), while pages of unchosen schemes are fetched with
:data:`~repro.web.cache.NO_CACHE` — traversed, never retained, exactly the
budgeted set the advisor picked.

:meth:`QueryServer.warm_up <repro.server.service.QueryServer.warm_up>`
exposes this on the server: call it once before opening admission and the
whole cohort starts against a warm, advisor-shaped cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

from repro.adm.links import crawl
from repro.engine.session import QuerySession
from repro.materialized.advisor import AdvisorReport, WorkloadQuery, advise
from repro.obs.metrics import METRICS
from repro.obs.trace import NULL_TRACER
from repro.web.cache import NO_CACHE
from repro.web.client import FetchConfig, WebClient

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sites import SiteEnv

__all__ = ["WarmupReport", "warm_cache"]


@dataclass(frozen=True)
class WarmupReport:
    """What one warm-up pass decided and did."""

    #: the advisor's decision (chosen schemes, candidates, estimates)
    advisor: AdvisorReport
    #: chosen-scheme pages now resident in the cross-query cache
    warmed_pages: int
    #: unchosen pages fetched only to traverse their links (not cached)
    transit_pages: int
    light_connections: int
    seconds: float

    def __repr__(self) -> str:
        return (
            f"WarmupReport({self.warmed_pages} warmed over "
            f"{sorted(self.advisor.chosen)}, {self.transit_pages} transit, "
            f"{self.seconds:.2f}s)"
        )


def warm_cache(
    env: "SiteEnv",
    workload: Sequence[WorkloadQuery],
    *,
    mutation_rate: float,
    page_budget: Optional[int] = None,
    light_weight: Optional[float] = None,
    workers: int = 4,
    tracer: object = None,
) -> WarmupReport:
    """Advise on ``workload`` and pre-load the chosen schemes' pages.

    The crawl uses its own client clone (shared server/network, private
    log — the server's per-request isolation discipline), attached to the
    environment's cross-query cache (created at default capacity if the
    environment has none).  Each level of the crawl is fetched as one
    ``workers``-lane batch, chosen-scheme pages through the cache,
    transit pages around it."""
    report = advise(
        env,
        workload,
        mutation_rate=mutation_rate,
        page_budget=page_budget,
        light_weight=light_weight,
    )
    chosen = report.materialize_set()
    cache = env.page_cache if env.page_cache is not None else env.enable_cache()
    base = env.client
    client = WebClient(base.server, base.network, base.retry_policy, cache)
    trace = tracer if tracer is not None else NULL_TRACER
    config = FetchConfig(max_workers=workers)
    warmed = 0
    transit = 0

    def fetch(level):
        nonlocal warmed, transit
        chosen_urls = [u for ps, u in level if ps in chosen]
        transit_urls = [u for ps, u in level if ps not in chosen]
        resources = client.get_batch(chosen_urls, config=config)
        warmed += sum(r is not None for r in resources.values())
        passing = client.get_batch(transit_urls, config=config, cache=NO_CACHE)
        transit += sum(r is not None for r in passing.values())
        resources.update(passing)
        # wrap for link discovery through a session over the level's pages:
        # a chosen page's tuple stays on the cache entry it was stored as
        # (or comes from there on a re-warm)
        session = QuerySession(client, env.registry)
        session.seed_resources(resources)
        return {url: session.fetch_tuple(ps, url) for ps, url in level}

    with trace.span(  # type: ignore[attr-defined]
        "server_warmup", kind="maintenance", chosen=len(chosen), workers=workers
    ):
        crawl(env.scheme, fetch)
    pages_total = METRICS.counter(
        "repro_server_warmup_pages_total", "warm-up pages by kind"
    )
    pages_total.inc(warmed, kind="warmed")
    pages_total.inc(transit, kind="transit")
    return WarmupReport(
        advisor=report,
        warmed_pages=warmed,
        transit_pages=transit,
        light_connections=client.log.light_connections,
        seconds=client.log.simulated_seconds,
    )
