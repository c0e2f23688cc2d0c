"""Site snapshots: crawled, wrapped page tuples organized by page-scheme.

A snapshot is the working set for constraint verification and mining.  It
also exposes *link occurrences*: for a given link attribute path, every
place a link value appears, together with the attribute values visible at
that nesting level (what a link constraint may reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.adm.links import crawl
from repro.adm.page_scheme import AttrPath
from repro.adm.scheme import WebScheme
from repro.errors import ResourceNotFound, SchemeError, WrapperError
from repro.web.client import WebClient
from repro.wrapper.wrapper import WrapperRegistry

__all__ = ["LinkOccurrence", "SiteSnapshot", "crawl_snapshot"]


@dataclass(frozen=True)
class LinkOccurrence:
    """One occurrence of a link value in a page tuple.

    ``page`` is the whole page tuple; ``level`` is the row at the link's
    nesting level (the page itself for top-level links, the list item for
    nested ones).  Attribute lookup resolves link-level attributes first,
    then enclosing page-level ones — mirroring which attributes a link
    constraint may reference.
    """

    page: dict
    level: dict
    value: Optional[str]

    def attr(self, path: AttrPath) -> Optional[str]:
        if path.parent is None:
            # a top-level attribute of the page
            if path.leaf in self.level:
                return self.level.get(path.leaf)
            return self.page.get(path.leaf)
        return self.level.get(path.leaf)


class SiteSnapshot:
    """Wrapped tuples per page-scheme, keyed by URL."""

    def __init__(self, scheme: WebScheme):
        self.scheme = scheme
        self.pages: dict[str, dict[str, dict]] = {
            name: {} for name in scheme.page_schemes
        }

    def add(self, page_scheme: str, url: str, plain: dict) -> None:
        if page_scheme not in self.pages:
            raise SchemeError(f"unknown page-scheme {page_scheme!r}")
        self.pages[page_scheme][url] = plain

    def tuples(self, page_scheme: str) -> dict[str, dict]:
        try:
            return self.pages[page_scheme]
        except KeyError:
            raise SchemeError(f"unknown page-scheme {page_scheme!r}") from None

    def page_count(self) -> int:
        return sum(len(d) for d in self.pages.values())

    # ------------------------------------------------------------------ #
    # link occurrences
    # ------------------------------------------------------------------ #

    def link_occurrences(
        self, page_scheme: str, link_path: AttrPath | str
    ) -> Iterator[LinkOccurrence]:
        """Every occurrence of the link attribute over the snapshot."""
        if isinstance(link_path, str):
            link_path = AttrPath.parse(link_path)
        # validate it is a link
        self.scheme.link_target(page_scheme, link_path)

        def rows_at(level_row: dict, steps: tuple) -> Iterator[dict]:
            if len(steps) == 1:
                yield level_row
                return
            for item in level_row.get(steps[0]) or []:
                yield from rows_at(item, steps[1:])

        for plain in self.tuples(page_scheme).values():
            for level in rows_at(plain, link_path.steps):
                yield LinkOccurrence(
                    page=plain, level=level, value=level.get(link_path.leaf)
                )

    def link_values(
        self, page_scheme: str, link_path: AttrPath | str
    ) -> set:
        """The set of non-null values of a link attribute."""
        return {
            occ.value
            for occ in self.link_occurrences(page_scheme, link_path)
            if occ.value is not None
        }

    def all_link_paths(self) -> list[tuple]:
        """Every ``(page_scheme, link_path, target_scheme)`` in the scheme."""
        result = []
        for name, ps in self.scheme.page_schemes.items():
            for path, lt in ps.link_paths():
                result.append((name, path, lt.target))
        return result

    def __repr__(self) -> str:
        return f"SiteSnapshot({self.page_count()} pages)"


def crawl_snapshot(
    scheme: WebScheme,
    client: WebClient,
    registry: WrapperRegistry,
    max_pages: Optional[int] = None,
) -> SiteSnapshot:
    """Crawl the site from its entry points into a snapshot
    (:func:`~repro.adm.links.crawl`)."""
    snapshot = SiteSnapshot(scheme)

    def add(level):
        tuples = {}
        for page_scheme, url in level:
            try:
                tuples[url] = registry.wrap(page_scheme, url, client.get(url).html)
            except (ResourceNotFound, WrapperError):
                continue
            snapshot.add(page_scheme, url, tuples[url])
        return tuples

    crawl(scheme, add, max_pages)
    return snapshot
