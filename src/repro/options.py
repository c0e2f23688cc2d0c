"""The per-query option bundle and request envelope.

Every query entry point (`SiteEnv.query` / ``execute`` / ``explain``,
:meth:`RemoteExecutor.execute
<repro.engine.remote.RemoteExecutor.execute>`, the QA oracle, every
benchmark) is configured through one keyword, ``options=``, carrying a
:class:`QueryOptions`: one frozen value object, checked once at
construction (:meth:`QueryOptions.validate`) and then flowing unchanged
through planner, executor, and the multi-query server
(:mod:`repro.server`).

:class:`QueryRequest` is the server-side envelope: a query (or a
pre-chosen plan), its options, and the submitting tenant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Union

from repro.algebra.ast import Expr
from repro.engine.pipeline import PipelineConfig, coerce_execution
from repro.errors import OptionsError
from repro.obs.journal import Journal
from repro.views.conjunctive import ConjunctiveQuery
from repro.web.cache import CachePolicy, PageCache
from repro.web.client import FetchConfig, RetryPolicy

__all__ = [
    "CacheSpec",
    "QueryOptions",
    "QueryRequest",
    "DEFAULT_OPTIONS",
]

#: Everything a ``cache=`` argument may be: a live cache, a policy (or its
#: string name, resolved against the environment cache by ``SiteEnv``), or
#: None for "the environment / client default".
CacheSpec = Union[PageCache, CachePolicy, str, None]

@dataclass(frozen=True)
class QueryOptions:
    """Everything configurable about one query execution, validated once.

    ``cache``
        A :class:`~repro.web.cache.PageCache` to use as-is, a
        :class:`~repro.web.cache.CachePolicy` (or its string name) to be
        resolved against the environment cache, or None for the default.
    ``fetch``
        :class:`~repro.web.client.FetchConfig` bounding the concurrent
        fetch pool (None: follow the network model).
    ``retry``
        :class:`~repro.web.client.RetryPolicy` for transient faults
        (None: the client's policy).
    ``execution``
        one of :data:`~repro.engine.pipeline.EXECUTION_MODES`, canonicalized
        at construction by :func:`~repro.engine.pipeline.coerce_execution`
        (``" Pipelined "`` → ``"pipelined"``), so an unknown mode can
        never travel.
    ``pipeline``
        :class:`~repro.engine.pipeline.PipelineConfig` tuning chunking and
        backpressure for the pipelined mode.
    ``tracer``
        A :class:`~repro.obs.trace.RecordingTracer` (or the null tracer);
        purely observational.
    ``journal``
        A :class:`~repro.obs.journal.Journal` to receive this execution's
        event block (request / plan / spans / result with correlation
        ids); purely observational, like the tracer.  None (the default)
        journals nothing.

    Instances are frozen: derive variants with :meth:`with_cache` /
    :func:`dataclasses.replace`.
    """

    cache: CacheSpec = None
    fetch: Optional[FetchConfig] = None
    retry: Optional[RetryPolicy] = None
    execution: str = "staged"
    pipeline: Optional[PipelineConfig] = None
    tracer: Optional[Any] = None
    journal: Optional[Journal] = None

    def __post_init__(self) -> None:
        if isinstance(self.cache, str):
            try:
                policy = CachePolicy.coerce(self.cache)
            except Exception as err:
                raise OptionsError(str(err)) from None
            object.__setattr__(self, "cache", policy)
        object.__setattr__(
            self, "execution", coerce_execution(self.execution)
        )
        self.validate()

    def validate(self) -> "QueryOptions":
        """Type-check every typed field; returns ``self`` so calls can be
        chained.

        This is the one validation path for CLI, QA, benchmarks, and the
        server.  ``execution`` is already canonical here: construction
        ran it through :func:`~repro.engine.pipeline.coerce_execution`,
        which raises :class:`~repro.errors.ExecutionModeError` for an
        unknown mode."""
        if self.fetch is not None and not isinstance(self.fetch, FetchConfig):
            raise OptionsError(
                f"fetch must be a FetchConfig or None, got {self.fetch!r}"
            )
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise OptionsError(
                f"retry must be a RetryPolicy or None, got {self.retry!r}"
            )
        if self.pipeline is not None and not isinstance(
            self.pipeline, PipelineConfig
        ):
            raise OptionsError(
                f"pipeline must be a PipelineConfig or None, "
                f"got {self.pipeline!r}"
            )
        if self.cache is not None and not isinstance(
            self.cache, (PageCache, CachePolicy)
        ):
            raise OptionsError(
                f"cache must be a PageCache, CachePolicy, policy name, or "
                f"None, got {self.cache!r}"
            )
        if self.journal is not None and not isinstance(self.journal, Journal):
            raise OptionsError(
                f"journal must be a repro.obs.journal.Journal or None, "
                f"got {self.journal!r}"
            )
        return self

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #

    def with_cache(self, cache: CacheSpec) -> "QueryOptions":
        """A copy with ``cache`` replaced (used by ``SiteEnv`` to thread
        the *resolved* cache object through planning and execution so the
        policy-name lookup happens exactly once)."""
        return replace(self, cache=cache)


#: The all-defaults bundle (staged execution, client-default everything).
DEFAULT_OPTIONS = QueryOptions()


@dataclass(frozen=True)
class QueryRequest:
    """One unit of work for the multi-query server.

    ``query`` is conjunctive SQL text or a parsed
    :class:`~repro.views.conjunctive.ConjunctiveQuery`; alternatively a
    pre-chosen ``plan`` (an algebra :class:`~repro.algebra.ast.Expr`)
    skips planning — the QA oracle uses this to push a *specific*
    candidate plan through the server.  ``tenant`` feeds the server's
    fair scheduler; ``options`` defaults to the server's configured
    bundle."""

    query: Union[str, ConjunctiveQuery, None] = None
    options: Optional[QueryOptions] = None
    tenant: str = "default"
    plan: Optional[Expr] = None

    def __post_init__(self) -> None:
        if self.query is None and self.plan is None:
            raise OptionsError("a QueryRequest needs a query or a plan")
        if self.query is not None and not isinstance(
            self.query, (str, ConjunctiveQuery)
        ):
            raise OptionsError(
                f"query must be SQL text or a ConjunctiveQuery, "
                f"got {self.query!r}"
            )
        if self.plan is not None and not isinstance(self.plan, Expr):
            raise OptionsError(f"plan must be an Expr, got {self.plan!r}")
        if self.options is not None and not isinstance(
            self.options, QueryOptions
        ):
            raise OptionsError(
                f"options must be a QueryOptions, got {self.options!r}"
            )
        if not self.tenant or not isinstance(self.tenant, str):
            raise OptionsError(f"tenant must be a non-empty string, "
                               f"got {self.tenant!r}")
