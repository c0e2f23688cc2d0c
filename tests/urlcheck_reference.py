"""Function 2 one URL at a time, kept as the batched URLCheck's reference.

:func:`url_check` is the paper's Function 2 read literally: one page, one
light connection through :meth:`WebClient.head
<repro.web.client.WebClient.head>`, one decision.  :class:`
ReferenceCheckingProvider` is Algorithm 3's navigation loop over it, a
target flagged ``missing`` deferred to ``check_missing``.  This is what
:meth:`MaterializedStore.check_urls
<repro.materialized.store.MaterializedStore.check_urls>` — which hands
each run of consecutive light connections to :meth:`WebClient.revalidate
<repro.web.client.WebClient.revalidate>` in one call — must reproduce:
the same HEADs, downloads, flags, access dates, log counters (simulated
seconds to the bit) and trace events, in the same order.
``tests/test_urlcheck_property.py`` holds the two against each other.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.materialized.store import MaterializedStore, Status
from repro.web.cache import Freshness, freshness_from_head


def url_check(
    store: MaterializedStore,
    page_scheme: str,
    url: str,
    max_age: Optional[int] = None,
) -> Optional[dict]:
    """Check (and lazily maintain) one page; returns its fresh tuple, or
    None when the page no longer exists."""
    status = store.status_of(url)
    if status is Status.CHECKED:
        page = store.stored(url)
        if page is not None:
            return page.tuples[page.page_scheme]
        return store._transient.get(url)

    page = store.stored(url)
    if (
        max_age is not None
        and page is not None
        and status is Status.NONE
        and store.client.server.clock.now() - page.checked_at <= max_age
    ):
        return page.tuples[page.page_scheme]
    if status is Status.NEW or page is None:
        fresh = store._download(page_scheme, url, previous=page)
        if fresh is None:
            store.status[url] = Status.MISSING
            store.check_missing.add(url)
            return None
        store.status[url] = Status.CHECKED
        return fresh

    freshness = freshness_from_head(store.client.head(url), page.last_modified)
    if freshness is Freshness.MISSING:
        store._remove(url)
        store.status[url] = Status.MISSING
        store.check_missing.add(url)
        return None
    if freshness is Freshness.STALE:
        fresh = store._download(page_scheme, url, previous=page)
        store.status[url] = Status.CHECKED
        return fresh
    page.checked_at = store.client.server.clock.now()
    store.status[url] = Status.CHECKED
    return page.tuples[page.page_scheme]


class ReferenceCheckingProvider:
    """Algorithm 3's page-relation provider, one URL at a time."""

    def __init__(self, store: MaterializedStore, max_age: Optional[int] = None):
        self.store = store
        self.max_age = max_age

    def entry_tuples(self, page_schemes: Sequence[str]) -> dict[str, dict]:
        result = {}
        for page_scheme in page_schemes:
            url = self.store.scheme.entry_point(page_scheme).url
            plain = url_check(self.store, page_scheme, url, self.max_age)
            if plain is not None:
                result[page_scheme] = plain
        return result

    def target_tuples(
        self, page_scheme: str, urls: Sequence[str]
    ) -> dict[str, dict]:
        result = {}
        for url in urls:
            if self.store.status_of(url) is Status.MISSING:
                # deferred: the page is probably deleted; check off-line
                self.store.check_missing.add(url)
                continue
            plain = url_check(self.store, page_scheme, url, self.max_age)
            if plain is not None:
                result[url] = plain
        return result
