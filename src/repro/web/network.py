"""A simple network time model.

The paper's cost model counts pages because, in 1998, the dominant cost of
a page was fixed connection overhead; Section 8 additionally relies on
light connections being "quite fast, since they do not require to download
the HTML source".  This model makes both statements quantitative so that
experiments can report simulated wall time next to page counts:

* a full GET costs one round trip plus transfer time (bytes / bandwidth);
* a HEAD costs one round trip only;
* a *batch* of GETs issued together overlaps round trips across up to
  ``parallel_connections`` simultaneous connections (modern engines
  amortize per-page latency this way), so its wall time is the makespan of
  a greedy schedule over that many lanes — see
  :class:`~repro.clock.Timeline`.

Defaults approximate a 1998 dial-up connection: 250 ms round trip,
33.6 kbit/s (≈4200 bytes/s) throughput, a single connection.  The model is
a reporting aid: page *counts* stay faithful to the paper's cost function
C(E) at every concurrency level (byte-aware tie-breaking is separate, see
``CostModel.bytes_cost``).  One ratio of it does enter the optimizer's cost
function: :meth:`NetworkModel.light_weight`, what a cache-aware estimate
charges for revalidating a cached page instead of downloading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.clock import Timeline

__all__ = ["NetworkModel", "MODEM_1998"]


@dataclass(frozen=True)
class NetworkModel:
    """Round-trip latency, throughput, and available parallel connections."""

    rtt_seconds: float = 0.25
    bytes_per_second: float = 4200.0
    parallel_connections: int = 1

    def __post_init__(self) -> None:
        if self.rtt_seconds < 0:
            raise ValueError("rtt must be non-negative")
        if self.bytes_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        if self.parallel_connections < 1:
            raise ValueError("need at least one connection")

    def get_seconds(self, byte_size: float) -> float:
        """Time to download a page of ``byte_size`` bytes."""
        return self.rtt_seconds + byte_size / self.bytes_per_second

    def head_seconds(self) -> float:
        """Time for a light connection (headers only)."""
        return self.rtt_seconds

    def light_weight(self, page_bytes: float) -> float:
        """A light connection in page units: ``head_seconds`` over the time
        to download a page of ``page_bytes`` (the site's mean).  One scalar,
        not one per page-scheme — a HEAD costs one round trip whatever the
        page weighs; 0 when round trips are free."""
        head = self.head_seconds()
        return head / self.get_seconds(page_bytes) if head else 0.0

    def revalidation_savings_seconds(self, byte_size: int) -> float:
        """Wall time saved by serving a cached page of ``byte_size`` bytes
        after a light-connection revalidation instead of re-downloading it
        (Section 8: light connections "are quite fast, since they do not
        require to download the HTML source") — the transfer time, since
        both paths pay one round trip."""
        return self.get_seconds(byte_size) - self.head_seconds()

    def batch_seconds(
        self,
        durations: Iterable[float],
        connections: Optional[int] = None,
    ) -> float:
        """Wall time for a batch of fetches with the given per-fetch
        ``durations``, overlapped over ``connections`` lanes (defaults to
        :attr:`parallel_connections`).  One lane degenerates to the plain
        sum — the serial model."""
        timeline = Timeline(connections or self.parallel_connections)
        for duration in durations:
            timeline.add(duration)
        return timeline.makespan


#: The default 1998-flavoured model.
MODEM_1998 = NetworkModel()
