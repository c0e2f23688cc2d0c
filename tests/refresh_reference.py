"""The refresh's new-target waves as a scan, kept as the reference.

:func:`fetch_new_targets` is ``repro.materialized.maintenance``'s
``_fetch_new_targets`` from before the store recorded the targets it flags
``new``: each wave rebuilds the outlink set of every stored page to find
them.  ``tests/test_refresh_targets.py`` runs ``batch_refresh`` with it in
place of the recorded one and holds the two runs equal.
"""

from __future__ import annotations

from repro.adm.links import outlink_set
from repro.materialized.store import MaterializedStore, Status
from repro.web.cache import NO_CACHE
from repro.web.client import FetchConfig


def fetch_new_targets(store: MaterializedStore, workers: int) -> tuple[int, int]:
    """Download link targets flagged ``new`` by the shard re-downloads.

    Waves of k-lane batches until no retained ``new`` target remains
    unstored (bounded — each wave either stores or terminally flags every
    URL it fetches)."""
    client = store.client
    before = client.log.snapshot()
    added = 0
    while True:
        wave: dict[str, str] = {}
        for page in store.entries():
            for link_url, target in outlink_set(
                store.scheme, page.page_scheme, store.tuple_of(page)
            ):
                if (
                    store.status_of(link_url) is Status.NEW
                    and store.stored(link_url) is None
                    and store._retains(target)
                ):
                    wave.setdefault(link_url, target)
        if not wave:
            break
        resources = client.get_batch(
            sorted(wave), config=FetchConfig(max_workers=workers), cache=NO_CACHE
        )
        for url in sorted(wave):
            resource = resources.get(url)
            if resource is None:
                store.status[url] = Status.MISSING
                store.check_missing.add(url)
                continue
            store._ingest(wave[url], url, resource)
            store.status[url] = Status.CHECKED
            added += 1
    delta = client.log.delta(before)
    return added, delta.page_downloads
