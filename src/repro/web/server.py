"""The simulated web server.

Holds the URL → :class:`WebResource` map and exposes the *site manager's*
mutation API: publishing, updating and deleting pages.  Every mutation
advances the shared logical clock and stamps the affected resource, so light
connections observe fresh ``Last-Modified`` dates — exactly the signal the
paper's Section 8 maintenance algorithms rely on.

The server itself never counts accesses; accounting lives in the client so
that concurrent clients (virtual-view executor, materializer, statistics
crawler) can be measured independently.

:class:`FaultPolicy` injects *transient* failures (timeouts, 5xx-style
server errors) into the serving path so retry/backoff behaviour can be
exercised deterministically: whether attempt *n* on a URL fails is a pure
hash of ``(seed, url, n)``, independent of thread interleaving, so a seeded
run is exactly reproducible even under a concurrent fetch pool.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional, Sequence

from repro.clock import SimClock
from repro.errors import ResourceNotFound, TransientFetchError, WebError
from repro.web.resources import WebResource

__all__ = ["FaultPolicy", "SimulatedWebServer"]


class FaultPolicy:
    """Deterministic transient-fault injector for the serving path.

    ``failure_rate`` is the per-attempt probability that a request fails
    transiently; the decision for attempt *n* on a URL is derived from a
    hash of ``(seed, url, n)``, so it does not depend on the order in which
    a worker pool happens to issue requests.  Per-URL attempt counters are
    kept internally (thread-safe); :meth:`reset` restarts them.
    """

    KINDS = ("timeout", "server_error")

    def __init__(
        self,
        failure_rate: float = 0.1,
        seed: int = 0,
        kinds: Sequence[str] = KINDS,
    ):
        if not 0.0 <= failure_rate < 1.0:
            raise WebError("failure_rate must be in [0, 1)")
        if not kinds or any(k not in self.KINDS for k in kinds):
            raise WebError(f"kinds must be a non-empty subset of {self.KINDS}")
        self.failure_rate = failure_rate
        self.seed = seed
        self.kinds = tuple(kinds)
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def _draw(self, url: str, attempt: int) -> float:
        import hashlib  # loads OpenSSL (3.6 MiB); only fault injection draws

        digest = hashlib.blake2b(
            f"{self.seed}:{url}:{attempt}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2**64

    def will_fail(self, url: str, attempt: int) -> bool:
        """Whether attempt ``attempt`` (1-based) at ``url`` is scheduled to
        fail.  Pure: depends only on ``(seed, url, attempt)`` — never on
        which plan, worker, or request ordering reached the URL — so any
        two executions that issue the same per-URL attempt sequence observe
        identical faults.  The QA oracle and the plan-independence
        regression tests pin this property."""
        return self._draw(url, attempt) < self.failure_rate

    def fault_for(self, url: str, attempt: int) -> Optional[TransientFetchError]:
        """The fault scheduled for ``(url, attempt)``, or None (pure)."""
        draw = self._draw(url, attempt)
        if draw >= self.failure_rate:
            return None
        kind = self.kinds[
            int(draw / self.failure_rate * len(self.kinds)) % len(self.kinds)
        ]
        return TransientFetchError(url, kind=kind, attempt=attempt)

    def check(self, url: str) -> None:
        """Count one attempt at ``url``; raise TransientFetchError if this
        attempt is chosen to fail."""
        with self._lock:
            attempt = self._attempts.get(url, 0) + 1
            self._attempts[url] = attempt
        fault = self.fault_for(url, attempt)
        if fault is not None:
            raise fault

    def attempts_made(self, url: str) -> int:
        """Attempts counted so far for ``url`` (0 when never requested)."""
        with self._lock:
            return self._attempts.get(url, 0)

    def reset(self) -> None:
        """Forget all attempt counters (restart the deterministic stream)."""
        with self._lock:
            self._attempts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPolicy(rate={self.failure_rate}, seed={self.seed}, "
            f"kinds={self.kinds})"
        )


class SimulatedWebServer:
    """In-process map of URLs to resources, with a mutation API."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        fault_policy: Optional[FaultPolicy] = None,
    ):
        self.clock = clock or SimClock()
        self.fault_policy = fault_policy
        self._resources: dict[str, WebResource] = {}

    # ------------------------------------------------------------------ #
    # site-manager API (publish / update / delete)
    # ------------------------------------------------------------------ #

    def publish(self, url: str, html: str, page_scheme: str = "") -> WebResource:
        """Create or replace the page at ``url`` (advances the clock)."""
        if not url:
            raise WebError("cannot publish at an empty URL")
        stamp = self.clock.tick()
        resource = WebResource(
            url=url, html=html, last_modified=stamp, page_scheme=page_scheme
        )
        self._resources[url] = resource
        return resource

    def update(self, url: str, html: str) -> WebResource:
        """Replace the HTML of an existing page (advances the clock)."""
        existing = self._require(url)
        stamp = self.clock.tick()
        existing.html = html
        existing.last_modified = stamp
        return existing

    def delete(self, url: str) -> None:
        """Remove the page at ``url``; later GET/HEADs see it as missing."""
        self._require(url)
        del self._resources[url]
        self.clock.tick()

    def touch(self, url: str) -> WebResource:
        """Bump a page's modification date without changing its content
        (models a no-op edit; forces maintenance to re-download)."""
        existing = self._require(url)
        existing.last_modified = self.clock.tick()
        return existing

    # ------------------------------------------------------------------ #
    # serving API (used by WebClient only)
    # ------------------------------------------------------------------ #

    def resource(self, url: str) -> WebResource:
        """Return the live resource (raises ResourceNotFound).  Bypasses the
        fault policy: this is the oracle/internal accessor; network-facing
        requests go through :meth:`serve`."""
        return self._require(url)

    def serve(self, url: str) -> WebResource:
        """Serve one network request for ``url``: raises ResourceNotFound
        for missing pages and, when a :class:`FaultPolicy` is installed,
        TransientFetchError for injected timeouts / server errors."""
        resource = self._require(url)
        if self.fault_policy is not None:
            self.fault_policy.check(url)
        return resource

    def exists(self, url: str) -> bool:
        return url in self._resources

    def last_modified(self, url: str) -> Optional[int]:
        """What a light connection to ``url`` reports: its ``Last-Modified``
        date, or None when the page is missing (the client charges it)."""
        resource = self._resources.get(url)
        return None if resource is None else resource.last_modified

    def urls(self) -> Iterator[str]:
        """All currently served URLs (site-manager view, not crawlable)."""
        return iter(sorted(self._resources))

    def urls_of_scheme(self, page_scheme: str) -> list[str]:
        """URLs whose resource was published for ``page_scheme`` (oracle
        helper for tests and exact statistics; not part of the web model)."""
        return sorted(
            url
            for url, res in self._resources.items()
            if res.page_scheme == page_scheme
        )

    def __len__(self) -> int:
        return len(self._resources)

    def _require(self, url: str) -> WebResource:
        try:
            return self._resources[url]
        except KeyError:
            raise ResourceNotFound(url) from None

    def __repr__(self) -> str:
        return f"SimulatedWebServer({len(self._resources)} resources)"
