"""The oracle's cost laws as data: :data:`repro.qa.oracle.LAWS`.

Two checks that need no site.  The first holds :func:`check_laws` to the
branching code it replaced (``tests/qa_laws_reference.py``): on synthetic
runs near a synthetic reference, every one of the 120 cell kinds gets as
many violations from the table as from the reference, law by law in the
same order.  The second breaks each row of the table alone, so a law that
never fires fails here even when every QA matrix passes.
"""

from __future__ import annotations

import itertools
import re
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.qa.oracle import (
    CACHE_MODES,
    EXEC_MODES,
    FAULT_MODES,
    LAWS,
    Cell,
    Run,
    _Reference,
    check_laws,
)
from repro.web.client import CostSummary

from tests import qa_laws_reference as reference_laws

#: Every cell kind the laws distinguish: 5 × 3 × 2 × 4 = 120.
CELL_KINDS = [
    Cell("q", 0, cache, fault, workers, exec_mode)
    for cache, fault, workers, exec_mode in itertools.product(
        CACHE_MODES, FAULT_MODES, (1, 4), EXEC_MODES
    )
]

#: The law each message of the reference code belongs to.
REFERENCE_MESSAGES = (
    (r"pages=", "cold pages"),
    (r"bytes=", "cold bytes"),
    (r"cold cell served", "cold (hits, revalidations)"),
    (r"downloaded URL set", "cold downloaded URLs"),
    (r"attempts=", "cold attempts without faults"),
    (r"serial k=1 cost", "serial counters"),
    (r"serial k=1 wall time", "serial wall time"),
    (r"fewer attempts", "cold attempts cover downloads under faults"),
    (r"warm cache still downloaded", "warm downloads"),
    (r"revalidations=.* reference pages", "warm revalidations"),
    (r"pages_saved=", "warm pages_saved"),
    (r"warm cache still parsed", "warm parses"),
    (r"stale cache re-downloaded", "stale downloads = touched pages"),
    (r"revalidations=.* untouched pages", "stale revalidations = untouched pages"),
    (r"light=", "stale light connections"),
    (r"downloads \+ pages_saved", "stale downloads + pages_saved"),
    (r"stale cache parsed", "stale parses = downloads"),
    (
        r"sharing attribution: own",
        "sharing own + revalidated + shared = reference pages",
    ),
    (r"sharing attribution: navigator", "sharing navigator pages = pages credited"),
    (r"server cell shared no pages", "sharing entry-point prefix"),
)

URLS = tuple(f"http://site/p{i}" for i in range(6))


def reference_law(message: str) -> str:
    for pattern, name in REFERENCE_MESSAGES:
        if re.match(pattern, message):
            return name
    raise AssertionError(f"unknown reference message {message!r}")


def table_law(message: str) -> str:
    name = message.split(": ", 1)[0]
    assert name in {law.name for law in LAWS}, message
    return name


def make_delta(**counts) -> SimpleNamespace:
    """An access-log delta whose ``cost`` agrees with its counters."""
    delta = SimpleNamespace(**counts)
    delta.cost = CostSummary(
        pages=delta.page_downloads,
        light_connections=delta.light_connections,
        bytes=delta.bytes_downloaded,
        simulated_seconds=delta.simulated_seconds,
        attempts=delta.attempts,
        cache_hits=delta.cache_hits,
        revalidations=delta.revalidations,
        pages_saved=delta.pages_saved,
        pages_shared=delta.pages_shared,
    )
    return delta


def make_reference(pages, light, nbytes, seconds, attempts, urls) -> _Reference:
    cost = CostSummary(
        pages=pages,
        light_connections=light,
        bytes=nbytes,
        simulated_seconds=seconds,
        attempts=attempts,
    )
    return _Reference(digest="d", rows=1, cost=cost, urls=frozenset(urls))


def reference_violations(cell, run) -> list[str]:
    found = reference_laws.check_costs(
        None, cell, run.delta, run.reference, run.touched, run.wraps
    )
    if cell.exec_mode == "server":
        found += reference_laws.check_sharing(
            None, run.query_log, run.nav_log, run.reference
        )
    return found


def near(value: int) -> st.SearchStrategy:
    """The value, an off-by-one change of it, or zero."""
    return st.sampled_from(sorted({value, value + 1, max(value - 1, 0), 0}))


@st.composite
def runs(draw) -> Run:
    urls = draw(st.sets(st.sampled_from(URLS), max_size=4))
    pages = len(urls)
    seconds = draw(st.sampled_from((0.0, 1.5, 2.25)))
    reference = make_reference(
        pages=pages,
        light=0,
        nbytes=100 * pages,
        seconds=seconds,
        attempts=draw(near(pages)),
        urls=urls,
    )
    touched = frozenset(draw(st.sets(st.sampled_from(URLS), max_size=4)))
    stale = len(touched & reference.urls)
    downloads = draw(near(draw(st.sampled_from((pages, stale, 0)))))
    downloaded = draw(
        st.sampled_from(
            (
                sorted(urls),
                sorted(urls)[:-1],
                sorted(set(urls) | {URLS[-1]}),
                sorted(touched & urls),
            )
        )
    )
    delta = make_delta(
        page_downloads=downloads,
        light_connections=draw(near(pages)),
        bytes_downloaded=draw(st.sampled_from((100 * pages, 100 * downloads)))
        + draw(st.sampled_from((0, 1, -1))),
        simulated_seconds=seconds + draw(st.sampled_from((0.0, 1e-12, 0.5))),
        attempts=draw(near(draw(st.sampled_from((pages, downloads))))),
        cache_hits=draw(near(0)),
        revalidations=draw(near(draw(st.sampled_from((pages, pages - stale, 0))))),
        pages_saved=draw(near(draw(st.sampled_from((pages, pages - downloads))))),
        pages_shared=draw(near(1)),
        downloaded_urls=downloaded,
    )
    shared = draw(near(1))
    own = draw(near(max(pages - shared, 0)))
    query_log = SimpleNamespace(
        page_downloads=own, revalidations=draw(near(0)), pages_shared=shared
    )
    nav_log = SimpleNamespace(
        page_downloads=draw(near(shared)), revalidations=draw(near(0))
    )
    return Run(
        delta=delta,
        wraps=draw(near(draw(st.sampled_from((downloads, 0))))),
        reference=reference,
        touched=touched,
        query_log=query_log,
        nav_log=nav_log,
    )


def test_the_table_reports_what_the_branching_code_reported():
    examples = []
    fired = set()

    @settings(
        max_examples=500,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(runs())
    def agree(run):
        examples.append(run)
        for cell in CELL_KINDS:
            expected = [reference_law(m) for m in reference_violations(cell, run)]
            got = [table_law(m) for m in check_laws(cell, run)]
            assert got == expected, (cell.cell_id, got, expected)
            fired.update(got)

    agree()
    assert len(examples) >= 500
    assert fired == {law.name for law in LAWS}, "some law never fired"


# --------------------------------------------------------------------- #
# each law, broken alone
# --------------------------------------------------------------------- #

#: pages 4, 400 bytes, 2.0 simulated seconds, 4 attempts, URLs p0..p3;
#: the stale perturbation touched p0, p1 (needed) and p5 (not needed).
REFERENCE = make_reference(4, 0, 400, 2.0, 4, URLS[:4])
TOUCHED = frozenset({URLS[0], URLS[1], URLS[5]})

#: A run that keeps every law, per cache mode.
LAWFUL = {
    "cold": dict(
        page_downloads=4, bytes_downloaded=400, cache_hits=0, revalidations=0,
        pages_saved=0, light_connections=0, attempts=4, wraps=4,
    ),
    "cross_query_warm": dict(
        page_downloads=0, bytes_downloaded=0, cache_hits=0, revalidations=4,
        pages_saved=4, light_connections=4, attempts=4, wraps=0,
    ),
    "cross_query_stale": dict(
        page_downloads=2, bytes_downloaded=200, cache_hits=0, revalidations=2,
        pages_saved=2, light_connections=4, attempts=6, wraps=2,
    ),
}

#: For each law: a cell it applies to and the changes that break it alone.
BREAKS = {
    "cold pages": ("per_query/none/w4/staged", {"page_downloads": 5}),
    "cold bytes": ("off/none/w4/adaptive", {"bytes_downloaded": 401}),
    "cold (hits, revalidations)": ("per_query/none/w4/staged", {"cache_hits": 1}),
    "cold downloaded URLs": ("cross_query_cold/none/w4/adaptive", {"urls": URLS}),
    "cold attempts without faults": ("off/none/w4/pipelined", {"attempts": 5}),
    "serial counters": ("off/none/w1/staged", {"light_connections": 1}),
    "serial wall time": ("off/none/w1/server", {"simulated_seconds": 2.5}),
    "cold attempts cover downloads under faults": (
        "off/transient/w4/staged", {"attempts": 3},
    ),
    "warm downloads": ("cross_query_warm/none/w1/adaptive", {"page_downloads": 1}),
    "warm revalidations": ("cross_query_warm/none/w4/staged", {"revalidations": 3}),
    "warm pages_saved": ("cross_query_warm/exhausted/w1/staged", {"pages_saved": 5}),
    "warm parses": ("cross_query_warm/none/w4/pipelined", {"wraps": 1}),
    "stale downloads = touched pages": (
        "cross_query_stale/none/w1/staged",
        {"page_downloads": 3, "pages_saved": 1, "wraps": 3},
    ),
    "stale revalidations = untouched pages": (
        "cross_query_stale/none/w4/adaptive", {"revalidations": 3},
    ),
    "stale light connections": (
        "cross_query_stale/transient/w4/staged", {"light_connections": 3},
    ),
    "stale downloads + pages_saved": (
        "cross_query_stale/none/w4/staged", {"pages_saved": 1},
    ),
    "stale parses = downloads": ("cross_query_stale/none/w4/adaptive", {"wraps": 1}),
    "sharing own + revalidated + shared = reference pages": (
        "per_query/none/w4/server", {"query_downloads": 4},
    ),
    "sharing navigator pages = pages credited": (
        "per_query/none/w4/server", {"nav_downloads": 2},
    ),
    "sharing entry-point prefix": (
        "per_query/none/w4/server",
        {"query_downloads": 4, "pages_shared": 0, "nav_downloads": 0},
    ),
}


def lawful_run(cell: Cell, **changes) -> Run:
    base = LAWFUL.get(cell.cache_mode, LAWFUL["cold"])
    counts = {**base, "simulated_seconds": 2.0, "pages_shared": 1, **changes}
    wraps = counts.pop("wraps")
    urls = counts.pop("urls", URLS[:4])
    query_downloads = counts.pop("query_downloads", 3)
    nav_downloads = counts.pop("nav_downloads", 1)
    pages_shared = counts.pop("pages_shared")
    return Run(
        delta=make_delta(pages_shared=pages_shared, downloaded_urls=urls, **counts),
        wraps=wraps,
        reference=REFERENCE,
        touched=TOUCHED,
        query_log=SimpleNamespace(
            page_downloads=query_downloads, revalidations=0,
            pages_shared=pages_shared,
        ),
        nav_log=SimpleNamespace(page_downloads=nav_downloads, revalidations=0),
    )


def test_every_cell_kind_keeps_the_laws_on_a_lawful_run():
    for cell in CELL_KINDS:
        assert check_laws(cell, lawful_run(cell)) == [], cell.cell_id


def test_each_law_breaks_alone():
    assert set(BREAKS) == {law.name for law in LAWS}
    for name, (kind, changes) in BREAKS.items():
        cell = Cell.parse(f"q/p0/{kind}")
        violations = check_laws(cell, lawful_run(cell, **changes))
        assert [table_law(m) for m in violations] == [name], (name, violations)
        # the message gives both values
        assert re.search(r": .+, want (==|≤|⊆|≥) .+", violations[0]), violations
