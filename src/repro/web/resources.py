"""Served resources and HEAD responses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["WebResource", "HeadResponse"]


@dataclass
class WebResource:
    """A page served by the simulated web server.

    ``page_scheme`` records which ADM page-scheme the page instantiates; real
    servers obviously don't expose this, and none of the query machinery
    reads it from here — it exists for test assertions and for building
    exact statistics oracles.

    ``tuples`` is set only on client-side snapshots (a page served from or
    stored into a :class:`~repro.web.cache.PageCache`, or handed over by
    the server's navigator): page-scheme → the tuple wrapped from exactly
    this ``html``, shared with whoever owns the snapshot.  The server's
    live resources mutate in place and never carry one.
    """

    url: str
    html: str
    last_modified: int
    page_scheme: str = ""
    tuples: Optional[dict] = field(default=None, compare=False, repr=False)

    def __repr__(self) -> str:
        return (
            f"WebResource({self.url!r}, {len(self.html)} bytes, "
            f"modified={self.last_modified})"
        )


@dataclass(frozen=True)
class HeadResponse:
    """What a light connection returns: an error flag and the modification
    date (paper, Section 8)."""

    url: str
    ok: bool
    last_modified: int

    def __repr__(self) -> str:
        status = "ok" if self.ok else "missing"
        return f"HeadResponse({self.url!r}, {status}, modified={self.last_modified})"
