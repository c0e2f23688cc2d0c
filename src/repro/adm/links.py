"""The links of a wrapped tuple, and the one walk of a site along them.

``iter_outlinks`` yields a page tuple's links — ``outlinks(t)`` in the
paper's Function 2 — in tuple order, skipping null (optional) links.
``crawl`` walks the site from its entry points: the entry points first, in
the scheme's order, then breadth-first, level by level, the links of each
level's pages in level order and tuple order.  The order depends only on
the scheme and the pages, so a crawl repeats exactly across processes.
"""

from __future__ import annotations

from typing import Callable, Iterator, KeysView, Mapping, Optional, Sequence, Tuple

from repro.adm.scheme import WebScheme
from repro.adm.webtypes import LinkType, ListType

__all__ = ["crawl", "iter_outlinks", "outlink_set"]


def iter_outlinks(
    scheme: WebScheme, page_scheme: str, plain: dict
) -> Iterator[Tuple[str, str]]:
    """Yield ``(target_scheme, url)`` for every link value in the tuple."""
    ps = scheme.page_scheme(page_scheme)

    def walk(fields, row):
        for fname, ftype in fields:
            value = row.get(fname)
            if isinstance(ftype, LinkType):
                if value is not None:
                    yield ftype.target, value
            elif isinstance(ftype, ListType):
                for sub in value or []:
                    yield from walk(ftype.fields, sub)

    top_fields = [(a.name, a.wtype) for a in ps.attributes]
    yield from walk(top_fields, plain)


def outlink_set(scheme: WebScheme, page_scheme: str, plain: dict) -> KeysView:
    """The paper's ``outlinks(t)``: the distinct ``(URL, target scheme)``
    pairs, in tuple order (a set view: ``-`` and ``in`` work)."""
    return dict.fromkeys(
        (url, target) for target, url in iter_outlinks(scheme, page_scheme, plain)
    ).keys()


def crawl(
    scheme: WebScheme,
    fetch: Callable[[Sequence[Tuple[str, str]]], Mapping[str, Optional[dict]]],
    max_pages: Optional[int] = None,
) -> int:
    """Visit the site in the module docstring's order; the store's
    ``populate`` (which is also the server's warm-up, see
    :mod:`repro.materialized.store`), ``full_refresh`` and the statistics
    and discovery crawls are ``fetch`` callbacks.

    ``fetch(level)`` gets a level's ``(page_scheme, url)`` pairs in
    first-reached order, each URL once and under the page-scheme that first
    reached it, and returns ``{url: tuple}``; a URL it leaves out or maps to
    None (dead, unwrappable) is a dead end.  ``max_pages`` bounds the URLs
    visited, failures included.  Returns the number of URLs visited."""
    visited: set[str] = set()
    reached = [(ep.scheme, ep.url) for ep in scheme.entry_points.values()]
    while reached:
        level = []
        for page_scheme, url in reached:
            if max_pages is not None and len(visited) >= max_pages:
                break
            if url not in visited:
                visited.add(url)
                level.append((page_scheme, url))
        if not level:
            break
        tuples = fetch(level)
        reached = [
            link
            for page_scheme, url in level
            if (plain := tuples.get(url)) is not None
            for link in iter_outlinks(scheme, page_scheme, plain)
        ]
    return len(visited)
