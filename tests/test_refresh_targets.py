"""A refresh round fetches the link targets the store recorded as ``new``.

``batch_refresh`` once found a round's new link targets by rebuilding the
outlink set of every stored page, wave after wave
(``tests/refresh_reference.py``).  The store now records each target as
:meth:`MaterializedStore._ingest` flags it, and the refresh fetches those
in one batch.  Here both run side by side on twin sites edited by the same
script, round after round: the reports, the stored pages, the flags, the
deferred ``check_missing`` queue and the log must stay equal.
"""

from __future__ import annotations

import random

import pytest

from repro.materialized import MaterializedStore, batch_refresh
from repro.materialized import maintenance
from repro.sitegen.mutations import SiteMutator, perturb_server
from repro.sitegen.university import UniversityConfig
from repro.sites import fuzzed, university
from repro.web.client import WebClient

from tests import refresh_reference

ROUNDS = 4


def edit_university(env, rng: random.Random, round_no: int) -> None:
    site = env.site
    mutator = SiteMutator(site)
    course = rng.choice(site.courses)
    mutator.update_course_description(course, f"{course.description} ({round_no})")
    mutator.add_course(rng.choice(site.profs))
    mutator.remove_course(rng.choice(site.courses))
    mutator.move_course(rng.choice(site.courses), rng.choice(site.profs))
    mutator.add_prof(rng.choice(site.depts).name)
    if round_no % 2:
        mutator.remove_prof(rng.choice(site.profs))
    mutator.update_prof_rank(rng.choice(site.profs), f"Rank{round_no}")


def edit_fuzzed(env, rng: random.Random, round_no: int) -> None:
    site = env.site
    child = rng.randrange(1, len(site.shapes))
    parent_cls = site.shapes[child - 1].name
    parent = rng.choice(site.entities[parent_cls]).name
    site.grow(site.shapes[child].name, 2, parent=parent)
    perturb_server(site.server, seed=round_no, fraction=0.2)


SITES = {
    "university": (
        lambda: university(UniversityConfig(n_depts=3, n_profs=12, n_courses=30)),
        edit_university,
        ("DeptPage", "ProfPage"),
    ),
    "fuzzed-3": (lambda: fuzzed(3), edit_fuzzed, None),
    "fuzzed-17": (lambda: fuzzed(17), edit_fuzzed, None),
}


def state(store: MaterializedStore, log):
    """The store after a round, and the round's log delta."""
    return {
        "pages": [
            (entry.url, entry.last_modified, entry.checked_at, store.tuple_of(entry))
            for entry in store.entries()
        ],
        "flags": dict(store.status),
        "check_missing": set(store.check_missing),
        "cost": log.cost,
        "failed": log.failed_requests,
        "downloaded": log.downloaded_urls,
        "records": log.records,
    }


@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("site_name", sorted(SITES))
def test_recorded_targets_refresh_like_the_scan(
    site_name, workers, partial, monkeypatch
):
    build, edit, retained = SITES[site_name]
    twins = []
    for _ in range(2):
        env = build()
        if partial and retained is None:
            retained = sorted(env.scheme.page_schemes)[::2]
        store = MaterializedStore(
            env.scheme,
            WebClient(env.site.server),
            env.registry,
            retain_schemes=retained if partial else None,
        )
        store.populate(workers=workers)
        twins.append((env, store, random.Random(f"edits:{site_name}")))
    scan = maintenance._fetch_new_targets
    added = 0
    for round_no in range(ROUNDS):
        reports, states = [], []
        for (env, store, rng), fetch in zip(
            twins, (scan, refresh_reference.fetch_new_targets)
        ):
            edit(env, rng, round_no)
            monkeypatch.setattr(maintenance, "_fetch_new_targets", fetch)
            before = store.client.log.snapshot()
            reports.append(batch_refresh(store, workers=workers))
            states.append(state(store, store.client.log.delta(before)))
        assert reports[0] == reports[1], round_no
        assert states[0] == states[1], round_no
        added += reports[0].added
    if not partial:
        assert added > 0, "no round fetched a new link target"
