"""Crawl-based statistics estimation (the paper's WebSQL exploration).

:class:`SiteExplorer` crawls a site from its entry points
(:func:`~repro.adm.links.crawl`), wrapping every page it reaches and
feeding the observations to a :class:`~repro.stats.statistics.
StatsCollector`.  The crawl uses its own client, so its network cost is
accounted separately from query execution — the paper assumes statistics
"have been initially estimated ... and are updated on a regular basis",
i.e. amortized outside query cost.

``max_pages`` bounds the crawl; a partial crawl yields *estimates* (pages
of a scheme seen so far, average list sizes over the sample) that the cost
model can still consume — the optimizer degrades gracefully with stale or
sampled statistics, which the sensitivity benchmark exercises.
"""

from __future__ import annotations

from typing import Optional

from repro.adm.links import crawl
from repro.adm.scheme import WebScheme
from repro.errors import ResourceNotFound, WrapperError
from repro.stats.statistics import SiteStatistics, StatsCollector
from repro.web.client import WebClient
from repro.web.server import SimulatedWebServer
from repro.wrapper.wrapper import WrapperRegistry

__all__ = ["SiteExplorer", "estimate_statistics"]


class SiteExplorer:
    """Crawler that estimates the Section 6.2 parameters."""

    def __init__(
        self,
        scheme: WebScheme,
        client: WebClient,
        registry: WrapperRegistry,
    ):
        self.scheme = scheme
        self.client = client
        self.registry = registry

    def explore(self, max_pages: Optional[int] = None) -> SiteStatistics:
        """Crawl from the entry points and build statistics.

        Pages that fail to download or wrap are skipped (real sites have
        dead links and irregular pages).
        """
        collector = StatsCollector()

        def observe(level):
            tuples = {}
            for page_scheme, url in level:
                try:
                    html = self.client.get(url).html
                    tuples[url] = self.registry.wrap(page_scheme, url, html)
                except (ResourceNotFound, WrapperError):
                    continue
                collector.observe(page_scheme, tuples[url], byte_size=len(html))
            return tuples

        crawl(self.scheme, observe, max_pages)
        return collector.build()


def estimate_statistics(
    scheme: WebScheme,
    server: SimulatedWebServer,
    registry: WrapperRegistry,
    max_pages: Optional[int] = None,
) -> SiteStatistics:
    """One-call crawl with a dedicated client."""
    explorer = SiteExplorer(scheme, WebClient(server), registry)
    return explorer.explore(max_pages=max_pages)
