"""Algorithm 3: query evaluation over materialized views.

A query plan (selected by Algorithm 1) is evaluated on the *local*
page-relations; navigations become joins over URLs.  Before a page's tuple
is used, :meth:`~repro.materialized.store.MaterializedStore.check_urls`
(Function 2, one call per follow-link) verifies freshness with a light
connection, re-downloading only changed pages — "while answering
queries, we also maintain the view".

The measured cost of a query is therefore: about C(E) light connections
plus one full download per page that actually changed since the last
access — which the Section 8 benchmark sweeps over update rates.  The
answer is the virtual path's :class:`~repro.engine.remote.ExecutionResult`:
its ``pages`` are the re-downloads, its ``light_connections`` the checks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.algebra.ast import Expr
from repro.engine.local import LocalExecutor
from repro.engine.remote import ExecutionResult
from repro.errors import OptionsError
from repro.materialized.store import MaterializedStore
from repro.optimizer.planner import Planner
from repro.options import QueryOptions
from repro.views.conjunctive import ConjunctiveQuery

__all__ = ["MaterializedEngine"]


class _CheckingProvider:
    """PageRelationProvider running Algorithm 3's URL checks."""

    def __init__(self, store: MaterializedStore, max_age: Optional[int] = None):
        self.store = store
        self.max_age = max_age

    def entry_tuples(self, page_schemes: Sequence[str]) -> dict[str, dict]:
        result = {}
        for page_scheme in page_schemes:
            url = self.store.scheme.entry_point(page_scheme).url
            plain = self.store.url_check(page_scheme, url, max_age=self.max_age)
            if plain is not None:
                result[page_scheme] = plain
        return result

    def target_tuples(
        self, page_scheme: str, urls: Sequence[str]
    ) -> dict[str, dict]:
        # a target flagged missing is probably deleted: checked off-line
        return self.store.check_urls(
            page_scheme, urls, max_age=self.max_age, defer_missing=True
        )


class _TrustingProvider:
    """Provider that serves stored tuples without any checking (the
    "tolerate obsolescence" mode the paper contrasts against)."""

    def __init__(self, store: MaterializedStore):
        self.store = store

    def entry_tuples(self, page_schemes: Sequence[str]) -> dict[str, dict]:
        result = {}
        for page_scheme in page_schemes:
            page = self.store.stored(self.store.scheme.entry_point(page_scheme).url)
            if page is not None:
                result[page_scheme] = self.store.tuple_of(page)
        return result

    def target_tuples(
        self, page_scheme: str, urls: Sequence[str]
    ) -> dict[str, dict]:
        result = {}
        for url in urls:
            page = self.store.stored(url)
            if page is not None and page.page_scheme == page_scheme:
                result[url] = self.store.tuple_of(page)
        return result


class MaterializedEngine:
    """Evaluates plans on the materialized store (Algorithm 3)."""

    def __init__(self, store: MaterializedStore, planner: Optional[Planner] = None):
        self.store = store
        self.planner = planner

    @staticmethod
    def _check_options(
        options: Optional[QueryOptions],
    ) -> Optional[QueryOptions]:
        """Validate an ``options=`` bundle for the materialized path.

        The store evaluates locally through its own client, so only
        ``QueryOptions.tracer`` applies; every other field set away from
        its default — the network-execution knobs *and* the event journal
        — is a caller error, rejected loudly (naming the fields exactly
        as they appear on :class:`~repro.options.QueryOptions`) rather
        than silently ignored."""
        if options is None:
            return None
        if not isinstance(options, QueryOptions):
            raise OptionsError(
                f"options must be a QueryOptions, got {options!r}"
            )
        inapplicable = [
            f"QueryOptions.{name}"
            for name, value in (
                ("cache", options.cache),
                ("fetch", options.fetch),
                ("retry", options.retry),
                ("pipeline", options.pipeline),
                ("journal", options.journal),
            )
            if value is not None
        ]
        if options.execution != "staged":
            inapplicable.append("QueryOptions.execution")
        if inapplicable:
            raise OptionsError(
                f"{sorted(inapplicable)} do not apply to materialized "
                "evaluation (Algorithm 3 runs locally through the store's "
                "client; only QueryOptions.tracer applies)"
            )
        return options

    def execute(
        self,
        expr: Expr,
        check: bool = True,
        max_age: Optional[int] = None,
        *,
        options: Optional[QueryOptions] = None,
    ) -> ExecutionResult:
        """Evaluate one plan.  ``check=True`` runs Algorithm 3 (lazy
        maintenance); ``check=False`` trusts the store blindly (possibly
        stale answers, zero network cost).  ``max_age`` tolerates a
        controlled level of obsolescence: tuples verified within the last
        ``max_age`` clock ticks are used without any connection.  Of
        ``options`` only the ``tracer`` applies (:meth:`_check_options`)."""
        opts = self._check_options(options)
        self.store.reset_status()
        provider = (
            _CheckingProvider(self.store, max_age=max_age)
            if check
            else _TrustingProvider(self.store)
        )
        executor = LocalExecutor(
            self.store.scheme,
            provider,
            tracer=opts.tracer if opts is not None else None,
        )
        before = self.store.client.log.snapshot()
        relation = executor.evaluate(expr)
        return ExecutionResult(relation, self.store.client.log.delta(before))

    def query(
        self,
        query: ConjunctiveQuery,
        check: bool = True,
        max_age: Optional[int] = None,
        *,
        options: Optional[QueryOptions] = None,
    ) -> ExecutionResult:
        """Optimize with Algorithm 1, then evaluate with Algorithm 3."""
        if self.planner is None:
            raise ValueError("MaterializedEngine was built without a planner")
        plan = self.planner.plan_query(query)
        return self.execute(
            plan.best.expr, check=check, max_age=max_age, options=options
        )
