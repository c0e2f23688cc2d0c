"""The oracle's cost laws as branching code, kept as ``LAWS``' reference.

:func:`check_costs` and :func:`check_sharing` are the oracle's
``_check_costs`` and ``_check_sharing`` from before the laws became rows of
:data:`repro.qa.oracle.LAWS`, copied verbatim (``self`` is unused).
``tests/test_qa_laws.py`` holds :func:`repro.qa.oracle.check_laws` to
them: over every cell kind, the table must report as many violations as
these two functions, law by law in the same order.
"""

from __future__ import annotations

import math

from repro.qa.oracle import Cell, _Reference
from repro.web.client import AccessLog


def check_costs(
    self,
    cell: Cell,
    delta,
    reference: _Reference,
    touched: frozenset,
    wraps: int,
) -> list[str]:
    """Mode-specific cost laws for a successful cell (``wraps``: pages
    parsed during the measured run).

    Static modes are held to *equalities* against the serial uncached
    reference.  The ``adaptive`` mode may prune provably irrelevant
    fetches (docs/ADAPTIVE.md), so its laws relax to one-sided bounds:
    never more pages, bytes, or URLs than the reference — and the
    relation digest (checked by the caller) must still be bit-for-bit
    the baseline's."""
    problems: list[str] = []
    ref = reference.cost
    adaptive = cell.exec_mode == "adaptive"

    def check(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    if cell.cache_mode in ("off", "per_query", "cross_query_cold"):
        # the cache cannot help a cold / scoped-out run: downloads are
        # exactly the reference's, at every worker count (bounded
        # above by it for the adaptive modes)
        check(
            delta.page_downloads <= ref.pages
            if adaptive
            else delta.page_downloads == ref.pages,
            f"pages={delta.page_downloads} "
            f"{'>' if adaptive else '!='} reference {ref.pages}",
        )
        check(
            delta.bytes_downloaded <= ref.bytes
            if adaptive
            else delta.bytes_downloaded == ref.bytes,
            f"bytes={delta.bytes_downloaded} "
            f"{'>' if adaptive else '!='} reference {ref.bytes}",
        )
        check(
            delta.cache_hits == 0 and delta.revalidations == 0,
            f"cold cell served {delta.cache_hits} hits / "
            f"{delta.revalidations} revalidations from the cache",
        )
        check(
            set(delta.downloaded_urls) <= set(reference.urls)
            if adaptive
            else set(delta.downloaded_urls) == set(reference.urls),
            "downloaded URL set is not a subset of the reference"
            if adaptive
            else "downloaded URL set differs from the reference",
        )
        if cell.fault_mode == "none":
            check(
                delta.attempts <= ref.attempts
                if adaptive
                else delta.attempts == ref.attempts,
                f"attempts={delta.attempts} "
                f"{'>' if adaptive else '!='} reference {ref.attempts} "
                "without faults",
            )
            if cell.workers == 1 and cell.cache_mode == "off" and (
                not adaptive
            ):
                # the serial uncached cell IS the reference execution:
                # every counter bit-for-bit, wall time up to float
                # accumulation error (log deltas subtract running sums)
                cost = delta.cost
                check(
                    (cost.pages, cost.light_connections, cost.bytes,
                     cost.attempts, cost.cache_hits, cost.revalidations,
                     cost.pages_saved)
                    == (ref.pages, ref.light_connections, ref.bytes,
                        ref.attempts, ref.cache_hits, ref.revalidations,
                        ref.pages_saved),
                    f"serial k=1 cost {cost} != reference {ref}",
                )
                check(
                    math.isclose(
                        cost.simulated_seconds,
                        ref.simulated_seconds,
                        rel_tol=1e-9,
                        abs_tol=1e-9,
                    ),
                    f"serial k=1 wall time {cost.simulated_seconds!r} "
                    f"!= reference {ref.simulated_seconds!r}",
                )
        else:
            check(
                delta.attempts >= delta.page_downloads,
                "fewer attempts than downloads under faults",
            )
    elif cell.cache_mode == "cross_query_warm":
        check(
            delta.page_downloads == 0,
            f"warm cache still downloaded {delta.page_downloads} pages",
        )
        check(
            delta.revalidations <= ref.pages
            if adaptive
            else delta.revalidations == ref.pages,
            f"revalidations={delta.revalidations} "
            f"{'>' if adaptive else '!='} reference pages {ref.pages}",
        )
        check(
            delta.pages_saved <= ref.pages
            if adaptive
            else delta.pages_saved == ref.pages,
            f"pages_saved={delta.pages_saved} "
            f"{'>' if adaptive else '!='} reference pages {ref.pages}",
        )
        check(wraps == 0, f"warm cache still parsed {wraps} pages")
    elif cell.cache_mode == "cross_query_stale":
        stale = len(touched & reference.urls)
        fresh = int(ref.pages) - stale
        check(
            delta.page_downloads <= stale
            if adaptive
            else delta.page_downloads == stale,
            f"stale cache re-downloaded {delta.page_downloads} pages, "
            f"expected {'at most' if adaptive else 'exactly'} the "
            f"{stale} touched ones",
        )
        check(
            delta.revalidations <= fresh
            if adaptive
            else delta.revalidations == fresh,
            f"revalidations={delta.revalidations} "
            f"{'>' if adaptive else '!='} untouched pages {fresh}",
        )
        check(
            delta.light_connections <= ref.pages
            if adaptive
            else delta.light_connections == ref.pages,
            f"light={delta.light_connections} "
            f"{'>' if adaptive else '!='} one HEAD per cached "
            f"page ({ref.pages})",
        )
        check(
            delta.page_downloads + delta.pages_saved <= ref.pages
            if adaptive
            else delta.page_downloads + delta.pages_saved == ref.pages,
            f"downloads + pages_saved "
            f"{'>' if adaptive else '!='} reference pages",
        )
        check(
            wraps == delta.page_downloads,
            f"stale cache parsed {wraps} pages but re-downloaded "
            f"{delta.page_downloads}",
        )
    return problems


def check_sharing(
    self,
    query_log: AccessLog,
    nav_log: AccessLog,
    reference: _Reference,
) -> list[str]:
    """The sharing-attribution arithmetic for a successful server cell.

    The navigator's fetches and the query's own fetches partition the
    reference page set, with ``pages_shared`` marking the hand-off:
    every page is either fetched (or revalidated) by exactly one of
    the two logs, and the query's share of the navigator's work is
    exactly the pages it was handed."""
    problems: list[str] = []
    ref = reference.cost
    accounted = (
        query_log.page_downloads
        + query_log.revalidations
        + query_log.pages_shared
    )
    if accounted != ref.pages:
        problems.append(
            f"sharing attribution: own {query_log.page_downloads} + "
            f"revalidated {query_log.revalidations} + shared "
            f"{query_log.pages_shared} != reference pages {ref.pages}"
        )
    provided = nav_log.page_downloads + nav_log.revalidations
    if provided != query_log.pages_shared:
        problems.append(
            f"sharing attribution: navigator provided {provided} pages "
            f"but the query was credited {query_log.pages_shared}"
        )
    if query_log.pages_shared <= 0:
        problems.append(
            "server cell shared no pages (every plan has at least its "
            "entry-point prefix)"
        )
    return problems
