"""Navigation-prefix signatures and the shared navigator.

The multi-query server's plan-level sharing rests on one observation: two
plans whose access paths start with the same entry point and follow the
same link chain will request the same pages for that chain, whatever they
do relationally above it.  A *navigation prefix* is the maximal pure
``EntryPointScan → (Unnest | FollowLink)*`` chain hanging off each entry
leaf of a plan; its :class:`PrefixSignature` — the ordered step list — is
the index key for in-flight and already-resolved shared work.

The prefix stops at the first non-navigation operator on purpose.  A
selection pushed *below* a follow (the optimizer's rule 3) cuts the set of
links actually followed, so sharing above a ``Select`` would speculate:
the navigator would fetch pages the query never asks for, violating the
executor's non-speculation guarantee and polluting per-query accounting.
Maximal *pure* chains are exactly the pages every subscriber is certain
to need.

:class:`SharedNavigator` resolves signatures once (single-flight per
signature, first caller evaluates, concurrent duplicates wait and reuse),
evaluates chains on a navigator-owned client so every fetched page is
attributed to the navigator's own :class:`~repro.web.client.AccessLog`,
and hands each subscriber the chain's page batch for injection via
:meth:`QuerySession.seed_resources
<repro.engine.session.QuerySession.seed_resources>` — which bumps the
query's ``pages_shared`` counter, keeping
``own pages + pages_shared == solo pages`` for cache-cold runs.  The pages
travel as snapshots carrying the tuples the navigator wrapped
(:meth:`QuerySession.touched_resources
<repro.engine.session.QuerySession.touched_resources>`), so a shared page
is parsed once, by the navigator, not once more per subscriber.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.adm.scheme import WebScheme
from repro.algebra.ast import EntryPointScan, Expr, FollowLink, Unnest
from repro.engine.local import LocalExecutor
from repro.engine.remote import _SessionProvider
from repro.engine.session import QuerySession
from repro.obs.metrics import METRICS
from repro.options import DEFAULT_OPTIONS, QueryOptions
from repro.web.cache import PageCache
from repro.web.client import AccessLog, WebClient
from repro.web.resources import WebResource
from repro.wrapper.wrapper import WrapperRegistry

__all__ = ["PrefixSignature", "SharedNavigator", "navigation_prefixes"]


@dataclass(frozen=True)
class PrefixSignature:
    """Ordered navigation steps, e.g. ``("entry:DeptListPage",
    "unnest:DeptListPage.DeptList", "follow:DeptListPage.DeptList.ToDept")``.

    Two plans carrying the same signature request the same page set for
    that chain — entry URLs are fixed by the scheme and follow targets are
    determined by page content, so the signature fully determines the
    pages (against one snapshot of the site)."""

    steps: tuple[str, ...]

    @property
    def depth(self) -> int:
        """Number of page-fetching steps (entry + follows)."""
        return sum(
            1
            for step in self.steps
            if step.startswith(("entry:", "follow:"))
        )

    def key(self) -> str:
        """Human-readable form used in spans and metric labels."""
        return " > ".join(self.steps)

    def __repr__(self) -> str:
        return f"PrefixSignature({self.key()!r})"


def _pure_chain(expr: Expr) -> Optional[list[str]]:
    """Step list when ``expr`` is a pure navigation chain, else None."""
    if isinstance(expr, EntryPointScan):
        return [f"entry:{expr.page_scheme}"]
    if isinstance(expr, Unnest):
        below = _pure_chain(expr.child)
        if below is None:
            return None
        below.append(f"unnest:{expr.attr}")
        return below
    if isinstance(expr, FollowLink):
        below = _pure_chain(expr.child)
        if below is None:
            return None
        below.append(f"follow:{expr.link_attr}")
        return below
    return None


def navigation_prefixes(
    expr: Expr,
) -> list[tuple[PrefixSignature, Expr]]:
    """The maximal pure navigation chains of a plan, leaf by leaf.

    Returns ``(signature, chain)`` pairs in left-to-right plan order —
    ``chain`` is the actual subexpression (directly evaluable), one pair
    per :class:`~repro.algebra.ast.EntryPointScan` leaf.  Maximality:
    each returned chain is the *topmost* pure navigation node on its
    leaf's path, so the pages it touches are exactly the pages a solo run
    of the enclosing plan would fetch for that access path (selections
    and joins above the chain never add fetches; anything below the cut
    never removes them)."""
    found: list[tuple[PrefixSignature, Expr]] = []

    def visit(node: Expr) -> None:
        steps = _pure_chain(node)
        if steps is not None:
            found.append((PrefixSignature(tuple(steps)), node))
            return
        for child in node.children():
            visit(child)

    visit(expr)
    return found


class SharedNavigator:
    """Resolves navigation prefixes once and fans the pages out.

    The navigator owns a dedicated :class:`~repro.web.client.WebClient`
    clone (same simulated server, network model, and retry policy as the
    environment's client, fresh :class:`AccessLog`), so the cost of shared
    navigation is cleanly separated from every query's own log — the QA
    oracle checks the combined footprint against the serial reference.

    Resolved signatures are retained for the navigator's lifetime: later
    queries over a hot prefix are served from memory (a plan-level analogue
    of the page cache, same staleness caveat — call :meth:`invalidate`
    after site mutations, or use one navigator per serving epoch as the
    conformance harness does).  Failed resolutions are never retained; the
    caller falls back to unshared execution and the next query leads a
    fresh attempt.
    """

    def __init__(
        self,
        scheme: WebScheme,
        client: WebClient,
        registry: WrapperRegistry,
    ):
        self.scheme = scheme
        # navigator-owned clone: shared server/network/retry, own log
        self.client = WebClient(
            client.server, client.network, client.retry_policy
        )
        self.registry = registry
        self._lock = threading.Lock()
        self._eval_lock = threading.Lock()
        self._resolved: dict[
            PrefixSignature, dict[str, Optional[WebResource]]
        ] = {}
        self._inflight: dict[PrefixSignature, threading.Event] = {}
        self._pool: dict[str, Optional[WebResource]] = {}

    @property
    def log(self) -> AccessLog:
        """The navigator's own accounting (all shared-prefix fetches)."""
        return self.client.log

    @property
    def resolved_signatures(self) -> tuple[PrefixSignature, ...]:
        with self._lock:
            return tuple(self._resolved)

    def invalidate(self) -> None:
        """Drop every retained page (call after mutating the site)."""
        with self._lock:
            self._resolved.clear()
            self._pool.clear()

    def resolve(
        self,
        signature: PrefixSignature,
        chain: Expr,
        options: Optional[QueryOptions] = None,
    ) -> tuple[dict[str, Optional[WebResource]], float]:
        """The chain's page batch, evaluated at most once per signature,
        plus the simulated seconds *this call* spent evaluating it — the
        lead caller pays the fetch time, hits and single-flight waiters
        report 0.0 (the server credits the lead's request makespan with
        it).

        Concurrent callers with the same signature single-flight: the
        first evaluates, the rest block and reuse.  ``options`` supplies
        fetch/retry/cache knobs for the evaluation (first caller wins;
        the page *set* is option-independent).  Raises whatever the
        evaluation raises (e.g. :class:`~repro.errors.
        RetriesExhaustedError` under injected faults) — nothing is
        retained on failure."""
        shared_prefix = METRICS.counter(
            "repro_server_shared_prefix_total",
            "navigation-prefix resolutions by outcome",
        )
        while True:
            with self._lock:
                pages = self._resolved.get(signature)
                if pages is not None:
                    shared_prefix.inc(outcome="hit")
                    return dict(pages), 0.0
                waiter = self._inflight.get(signature)
                if waiter is None:
                    self._inflight[signature] = threading.Event()
                    break
            waiter.wait()
        try:
            pages, seconds = self._evaluate(chain, options or DEFAULT_OPTIONS)
        except BaseException:
            shared_prefix.inc(outcome="error")
            raise
        else:
            shared_prefix.inc(outcome="lead")
            with self._lock:
                self._resolved[signature] = pages
                self._pool.update(pages)
            return dict(pages), seconds
        finally:
            with self._lock:
                event = self._inflight.pop(signature, None)
            if event is not None:
                event.set()

    def _evaluate(
        self, chain: Expr, options: QueryOptions
    ) -> tuple[dict[str, Optional[WebResource]], float]:
        """Fetch the chain's pages on the navigator's client.

        Serialized (one chain at a time): the navigator's log mutates on
        the evaluating thread, and a single writer keeps its accounting
        deterministic under server concurrency.  The session is pre-seeded
        with the pool of pages earlier signatures already resolved, so a
        signature that extends (or overlaps) another pays only for the
        *new* pages — overlap is never double-fetched or double-counted."""
        cache = options.cache if isinstance(options.cache, PageCache) else None
        with self._eval_lock:
            before = self.client.log.snapshot()
            if cache is not None:
                # mirror RemoteExecutor: the navigator's leg of a query
                # starts the query as far as the page cache is concerned
                # (validation marks reset, per-query entries dropped), so
                # navigator + subscriber together revalidate exactly the
                # pages a solo run would have
                cache.begin_query()
            session = QuerySession(
                self.client,
                self.registry,
                fetch_config=options.fetch,
                retry_policy=options.retry,
                cache=cache,
            )
            with self._lock:
                pool = dict(self._pool)
            session.seed_resources(pool)
            executor = LocalExecutor(
                self.scheme, _SessionProvider(self.scheme, session)
            )
            executor.evaluate(chain)
            seconds = self.client.log.delta(before).simulated_seconds
            return session.touched_resources(), seconds
