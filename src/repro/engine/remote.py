"""Remote evaluation: NALG plans against the live (simulated) web.

This is the virtual-view execution path of Sections 5–7: entry points are
downloaded through their known URLs, follow-link operators hand their
distinct link targets to the session as *one batch* (fetched concurrently
through the client's worker pool), wrappers turn HTML into nested tuples,
and all relational work happens locally at zero cost.  The per-query
:class:`~repro.engine.session.QuerySession` guarantees each page is
downloaded at most once per query, which makes the measured
``page_downloads`` directly comparable to the paper's cost function C(E) at
every concurrency level — parallelism only compresses simulated wall time.
With a cross-query :class:`~repro.web.cache.PageCache` attached, pages
already cached from earlier queries cost one light connection (or nothing)
instead of a download, and the per-query log reports the savings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.adm.scheme import WebScheme
from repro.algebra.ast import Expr
from repro.algebra.printer import render_expr
from repro.engine.adaptive import AdaptiveExecutor, AdaptiveReport
from repro.engine.compile import compile_plan
from repro.engine.local import LocalExecutor
from repro.engine.pipeline import (
    DEFAULT_PIPELINE_CONFIG,
    PipelinedExecutor,
    PrefetchScheduler,
)
from repro.engine.session import QuerySession
from repro.errors import OptionsError
from repro.nested.relation import Relation, relation_digest
from repro.obs.journal import NULL_JOURNAL
from repro.obs.progress import ProgressBoard, ProgressTracer, operator_estimates
from repro.obs.trace import NULL_TRACER, RecordingTracer, Span
from repro.options import DEFAULT_OPTIONS, QueryOptions
from repro.web.cache import CachePolicy
from repro.web.client import (
    DEFAULT_FETCH_CONFIG,
    AccessLog,
    CostSummary,
    WebClient,
)
from repro.web.resources import WebResource
from repro.wrapper.wrapper import WrapperRegistry

__all__ = ["ExecutionResult", "RemoteExecutor"]


@dataclass
class ExecutionResult:
    """The answer relation plus the measured network cost of producing it.

    ``trace`` is the root span of the execution when the run was traced
    (``None`` otherwise) — observational only: every other field is
    bit-for-bit identical whether or not a tracer was attached.

    ``adaptive`` carries the adaptive executor's decision report
    (:class:`~repro.engine.adaptive.AdaptiveReport` — prunes, switches,
    and their RewriteTrace) for ``execution="adaptive"`` runs; ``None``
    for every static mode."""

    relation: Relation
    log: AccessLog
    trace: Optional[Span] = None
    adaptive: Optional[AdaptiveReport] = None

    @property
    def pages(self) -> int:
        """Distinct pages downloaded — the paper's cost measure."""
        return self.log.page_downloads

    @property
    def light_connections(self) -> int:
        """Light (HEAD) connections issued while executing."""
        return self.log.light_connections

    @property
    def cache_hits(self) -> int:
        """Accesses served from the page cache without any connection."""
        return self.log.cache_hits

    @property
    def revalidations(self) -> int:
        """Cached pages served after a light-connection freshness check."""
        return self.log.revalidations

    @property
    def pages_saved(self) -> int:
        """Full downloads the page cache avoided for this query."""
        return self.log.pages_saved

    @property
    def cost(self) -> CostSummary:
        """Measured cost in the shared summary shape (same fields as
        ``PlannerResult.cost``, but observed instead of estimated)."""
        return CostSummary.from_log(self.log)

    def fingerprint(self) -> frozenset:
        """Canonical content digest of the answer relation (order- and
        duplicate-insensitive).  Two executions — any plan, cache policy,
        fault schedule, or worker count — answered the same relation iff
        their fingerprints are equal; the QA differential oracle compares
        exactly this."""
        return self.relation.canonical()

    def __repr__(self) -> str:
        return (
            f"ExecutionResult({len(self.relation)} rows, "
            f"{self.pages} pages, {self.log.bytes_downloaded} bytes)"
        )


class _SessionProvider:
    """Batch-first PageRelationProvider over a QuerySession."""

    def __init__(self, scheme: WebScheme, session: QuerySession):
        self.scheme = scheme
        self.session = session

    def entry_tuples(self, page_schemes: Sequence[str]) -> dict[str, dict]:
        urls = {
            page_scheme: self.scheme.entry_point(page_scheme).url
            for page_scheme in page_schemes
        }
        self.session.fetch_batch(list(urls.values()))
        result = {}
        for page_scheme, url in urls.items():
            plain = self.session.fetch_tuple(page_scheme, url)
            if plain is not None:
                result[page_scheme] = plain
        return result

    def target_tuples(
        self, page_scheme: str, urls: Sequence[str]
    ) -> dict[str, dict]:
        return self.session.fetch_tuples(page_scheme, urls)


class RemoteExecutor:
    """Evaluates computable plans by navigating the (simulated) web."""

    def __init__(
        self,
        scheme: WebScheme,
        client: WebClient,
        registry: WrapperRegistry,
        planner=None,
        cost_model=None,
    ):
        self.scheme = scheme
        self.client = client
        self.registry = registry
        # optional: adaptive execution re-plans switched suffixes through
        # the environment's planner and prices rule-9 decisions with its
        # cost model; both default to None (pruning + rule-8 still work)
        self.planner = planner
        self.cost_model = cost_model
        # fallback request ids for progress tracking without a journal
        self._request_ids = itertools.count(1)

    def execute(
        self,
        expr: Expr,
        *,
        options: Optional[QueryOptions] = None,
        shared_pages: Optional[Mapping[str, Optional[WebResource]]] = None,
        request_id: Optional[str] = None,
        board: Optional[ProgressBoard] = None,
    ) -> ExecutionResult:
        """Run one query: fresh session, per-query access accounting.

        ``options`` (a :class:`~repro.options.QueryOptions`) bundles every
        knob: ``options.fetch`` bounds the concurrent fetch pool for this
        query's batches, ``options.retry`` overrides the client's
        transient-failure handling, ``options.cache`` overrides the
        client's attached page cache (pass
        :data:`~repro.web.cache.NO_CACHE` to force uncached execution; at
        this level it must already be a resolved :class:`PageCache` —
        policy names are an environment concept, resolved by
        :class:`~repro.sites.SiteEnv`).  ``options.execution`` selects
        one of :data:`~repro.engine.pipeline.EXECUTION_MODES` (validated
        at bundle construction).  ``options.pipeline`` tunes the
        pipelined mode, and
        ``options.tracer`` records per-operator spans (observational; the
        recorded root span lands in ``ExecutionResult.trace``).

        ``shared_pages`` pre-loads pages another query already fetched
        (the multi-query server's plan-level sharing): newly injected live
        pages are counted in the log's ``pages_shared`` — they cost this
        query nothing and appear in the *provider's* log, keeping
        ``own pages + pages_shared == solo pages`` for cache-cold runs.

        ``options.journal`` attaches this execution's correlated event
        block (request / plan / span tree / result) to an event journal;
        ``board`` publishes live per-operator progress into a
        :class:`~repro.obs.progress.ProgressBoard` under ``request_id``
        (allocated when None).  Both are observational.  A journal reads
        the span tree, so when no recording tracer was supplied an
        internal one is attached — the tracing layer's non-interference
        guarantee (same digests, page counts, and cache counters) is what
        makes that safe, and the QA matrix's journal dimension re-proves
        it.  The board reads operator spans only: it is fed through a
        :class:`~repro.obs.progress.ProgressTracer` around whatever
        tracer the request has, and a request that records nothing gets
        ``ExecutionResult.trace is None``.
        """
        opts = DEFAULT_OPTIONS if options is None else options
        if not isinstance(opts, QueryOptions):
            raise OptionsError(f"options must be a QueryOptions, got {opts!r}")
        if isinstance(opts.cache, CachePolicy):
            raise OptionsError(
                f"RemoteExecutor cannot resolve cache policy "
                f"{opts.cache.value!r} — resolve it through SiteEnv, or "
                "pass a PageCache"
            )
        active_cache = (
            opts.cache if opts.cache is not None else self.client.cache
        )
        if active_cache is not None:
            # new query: per-query entries are dropped, cross-query
            # validation marks reset (the §8 "flags back to none")
            active_cache.begin_query()
        session = QuerySession(
            self.client,
            self.registry,
            fetch_config=opts.fetch,
            retry_policy=opts.retry,
            cache=opts.cache,
        )
        journal = opts.journal if opts.journal is not None else NULL_JOURNAL
        tracer = opts.tracer if opts.tracer is not None else NULL_TRACER
        if journal.enabled and not tracer.enabled:
            # a journal reads the span tree; recording is proven
            # non-interfering (tests/test_obs_noninterference, QA trace
            # dimension), so forcing a private recorder here cannot
            # change the answer or the page accounting
            tracer = RecordingTracer()
        # rendered only for a reader: a journal forces a recording tracer
        text = render_expr(expr) if tracer.enabled else None
        if journal.enabled:
            request_id = journal.begin_request(request_id)
            journal.record(
                "plan", request_id, plan=text, execution=opts.execution
            )
        elif board is not None and request_id is None:
            request_id = f"q{next(self._request_ids):04d}"
        # what the executor opens operator spans on; the client and the
        # query span see ``tracer`` alone
        watcher = tracer
        if board is not None:
            if not board.known(request_id):
                board.begin(
                    request_id, operator_estimates(expr, self.cost_model)
                )
            watcher = ProgressTracer(tracer, board, request_id)
        provider = _SessionProvider(self.scheme, session)
        client = self.client
        log = client.log
        meter = lambda: (  # noqa: E731 - read-only counter snapshot
            log.page_downloads,
            log.light_connections,
            log.cache_hits,
            log.revalidations,
            log.bytes_downloaded,
            log.simulated_seconds,
        )
        if opts.execution == "pipelined":
            lanes = (opts.fetch or DEFAULT_FETCH_CONFIG).effective_workers(
                client.network
            )
            scheduler = PrefetchScheduler(log, lanes=lanes, tracer=tracer)
            executor = PipelinedExecutor(
                self.scheme,
                session,
                scheduler,
                config=opts.pipeline or DEFAULT_PIPELINE_CONFIG,
                tracer=watcher,
            )
        elif opts.execution == "adaptive":
            # staged access pattern: relevance tests need each follow's
            # full binding set before its batch is scheduled
            executor = AdaptiveExecutor(
                self.scheme,
                provider,
                tracer=watcher,
                meter=meter,
                planner=self.planner,
                cost_model=self.cost_model,
            )
        else:
            executor = LocalExecutor(
                self.scheme, provider, tracer=watcher, meter=meter
            )
        before = log.snapshot()
        if shared_pages:
            log.pages_shared += session.seed_resources(dict(shared_pages))
        previous_tracer = client.tracer
        client.tracer = tracer  # fetch-batch spans nest under operator spans
        try:
            with tracer.span("execute", kind="query", plan=text) as span:
                plan = compile_plan(expr, self.scheme)
                if opts.execution != "adaptive":
                    # adaptive pruning and rule-9 switching read
                    # link-constraint attributes outside the plan
                    session.read_only(plan)
                relation = executor.run(plan)
        except Exception as err:
            delta = log.delta(before)
            if journal.enabled and request_id is not None:
                journal.record_error(
                    request_id, err, ts=delta.simulated_seconds
                )
            if board is not None and request_id is not None:
                board.finish(request_id)
            raise
        finally:
            client.tracer = previous_tracer
        delta = log.delta(before)
        trace = None
        if tracer.enabled and isinstance(span, Span):
            span.set(
                pages=delta.page_downloads,
                light_connections=delta.light_connections,
                cache_hits=delta.cache_hits,
                revalidations=delta.revalidations,
                seconds=delta.simulated_seconds,
                tuples_out=len(relation.rows),
            )
            trace = span
        if journal.enabled and request_id is not None:
            journal.record_execution(
                request_id,
                root=trace,
                ts=delta.simulated_seconds,
                rows=len(relation.rows),
                digest=relation_digest(relation),
                pages=delta.page_downloads,
                light_connections=delta.light_connections,
                cache_hits=delta.cache_hits,
                revalidations=delta.revalidations,
                pages_shared=delta.pages_shared,
                bytes=delta.bytes_downloaded,
                seconds=delta.simulated_seconds,
            )
        if board is not None and request_id is not None:
            board.finish(request_id)
        report = getattr(executor, "report", None)
        return ExecutionResult(relation, delta, trace=trace, adaptive=report)
