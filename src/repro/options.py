"""The unified per-query option bundle and request envelope.

Before this module, every query entry point (`SiteEnv.query` / ``execute``
/ ``explain``, :meth:`RemoteExecutor.execute
<repro.engine.remote.RemoteExecutor.execute>`, the QA oracle, every
benchmark) copy-pasted the same six keyword arguments: ``fetch_config``,
``retry_policy``, ``cache``, ``tracer``, ``execution``, ``pipeline``.
:class:`QueryOptions` replaces that sextet with one frozen, validated
value object — a bundle is checked once at construction
(:meth:`QueryOptions.validate`, which subsumes
:func:`~repro.engine.pipeline.coerce_execution`) and then flows unchanged
through planner, executor, and the multi-query server
(:mod:`repro.server`).

:class:`QueryRequest` is the server-side envelope: a query (or a
pre-chosen plan), its options, and the submitting tenant.

:func:`coerce_options` is the single deprecation shim used by every
migrated call site: it accepts *either* an ``options=`` bundle *or* the
legacy keyword arguments (emitting one :class:`DeprecationWarning` per
call), and raises :class:`~repro.errors.OptionsError` when both forms are
mixed — conflicting configuration must never be resolved silently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Union

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
    "coerce_options",
    "LEGACY_OPTION_KWARGS",
]

#: Everything a ``cache=`` argument may be: a live cache, a policy (or its
#: string name, resolved against the environment cache by ``SiteEnv``), or
#: None for "the environment / client default".
CacheSpec = Union[PageCache, CachePolicy, str, None]

#: The legacy keyword arguments subsumed by :class:`QueryOptions`, in the
#: order the old signatures declared them.
LEGACY_OPTION_KWARGS = (
    "fetch_config",
    "retry_policy",
    "cache",
    "tracer",
    "execution",
    "pipeline",
)


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
        one of :data:`~repro.engine.pipeline.EXECUTION_MODES` — validated
        at construction, so an unknown mode can never travel (this
        subsumes the old free-standing
        :func:`~repro.engine.pipeline.coerce_execution` call sites).
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
        if isinstance(self.execution, str):
            # canonicalize spelling ("Pipelined " → "pipelined") before the
            # bundle freezes; unknown modes raise in validate() below
            object.__setattr__(
                self, "execution", coerce_execution(self.execution)
            )
        self.validate()

    def validate(self) -> "QueryOptions":
        """Check every field; returns ``self`` so calls can be chained.

        This is the one validation path for CLI, QA, benchmarks, and the
        server: ``execution`` goes through
        :func:`~repro.engine.pipeline.coerce_execution` (an unknown mode
        raises :class:`~repro.errors.ExecutionModeError`), the typed
        fields are type-checked, and a non-canonical execution spelling
        (e.g. ``" Staged "``) is rejected rather than silently fixed —
        frozen bundles must already be canonical."""
        mode = coerce_execution(self.execution)
        if mode != self.execution:
            raise OptionsError(
                f"non-canonical execution mode {self.execution!r} "
                f"(use {mode!r})"
            )
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

    # ------------------------------------------------------------------ #
    # serialization (the server's wire shape)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict.  A live :class:`PageCache` and a tracer are
        process-local objects and refuse to serialize — callers shipping
        options across a process boundary must use policy names and attach
        tracers on the serving side."""
        if isinstance(self.cache, PageCache):
            raise OptionsError(
                "a live PageCache is not serializable; pass a cache policy "
                "name ('off', 'per_query', 'cross_query') instead"
            )
        if self.tracer is not None:
            raise OptionsError("a tracer is not serializable")
        if self.journal is not None:
            raise OptionsError(
                "a live journal is not serializable; attach journals on "
                "the serving side (ServerConfig.journal)"
            )
        return {
            "cache": self.cache.value if isinstance(self.cache, CachePolicy)
            else None,
            "fetch": None if self.fetch is None
            else {"max_workers": self.fetch.max_workers},
            "retry": None if self.retry is None
            else {
                "max_attempts": self.retry.max_attempts,
                "backoff_seconds": self.retry.backoff_seconds,
                "backoff_factor": self.retry.backoff_factor,
            },
            "execution": self.execution,
            "pipeline": None if self.pipeline is None
            else {
                "chunk_size": self.pipeline.chunk_size,
                "max_inflight_batches": self.pipeline.max_inflight_batches,
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryOptions":
        """Inverse of :meth:`to_dict` (unknown keys raise, so a typo'd
        field can never be dropped silently)."""
        known = {"cache", "fetch", "retry", "execution", "pipeline"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise OptionsError(
                f"unknown QueryOptions fields {unknown} "
                f"(expected a subset of {sorted(known)})"
            )
        fetch = data.get("fetch")
        retry = data.get("retry")
        pipeline = data.get("pipeline")
        try:
            return cls(
                cache=data.get("cache"),
                fetch=None if fetch is None else FetchConfig(**fetch),
                retry=None if retry is None else RetryPolicy(**retry),
                execution=data.get("execution", "staged"),
                pipeline=None if pipeline is None
                else PipelineConfig(**pipeline),
            )
        except TypeError as err:
            raise OptionsError(f"bad QueryOptions payload: {err}") from None


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


def coerce_options(
    options: Optional[QueryOptions] = None,
    *,
    fetch_config: Optional[FetchConfig] = None,
    retry_policy: Optional[RetryPolicy] = None,
    cache: CacheSpec = None,
    tracer: Optional[Any] = None,
    execution: Optional[str] = None,
    pipeline: Optional[PipelineConfig] = None,
    stacklevel: int = 3,
) -> QueryOptions:
    """The one legacy-kwargs shim shared by every migrated entry point.

    * ``options=`` alone → returned as-is (already validated; its type is
      still checked so a stray dict fails loudly).
    * legacy kwargs alone → one :class:`DeprecationWarning` (per call, not
      per kwarg), then coerced into a validated :class:`QueryOptions`.
    * both → :class:`~repro.errors.OptionsError`; mixing the forms is a
      conflict the caller must resolve, never the library.
    * neither → :data:`DEFAULT_OPTIONS`.

    ``stacklevel`` points the warning at the *user's* call site (the
    default of 3 assumes one wrapper frame: user → ``SiteEnv.query`` →
    here)."""
    legacy: dict[str, Any] = {}
    for name, value in (
        ("fetch_config", fetch_config),
        ("retry_policy", retry_policy),
        ("cache", cache),
        ("tracer", tracer),
        ("execution", execution),
        ("pipeline", pipeline),
    ):
        if value is not None:
            legacy[name] = value
    if options is not None:
        if legacy:
            raise OptionsError(
                f"pass options= or the legacy keyword arguments, not both "
                f"(got options= together with {sorted(legacy)})"
            )
        if not isinstance(options, QueryOptions):
            raise OptionsError(
                f"options must be a QueryOptions, got {options!r}"
            )
        return options
    if not legacy:
        return DEFAULT_OPTIONS
    warnings.warn(
        f"the {', '.join(sorted(legacy))} keyword argument(s) are "
        "deprecated; pass options=QueryOptions(...) instead "
        "(the legacy-kwargs shim is scheduled for removal in 2.0)",
        DeprecationWarning,
        stacklevel=stacklevel,
    )
    return QueryOptions(
        cache=cache,
        fetch=fetch_config,
        retry=retry_policy,
        execution="staged" if execution is None else execution,
        pipeline=pipeline,
        tracer=tracer,
    )
