"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish model errors (bad schemes), algebra errors
(ill-typed expressions), wrapper errors (unparseable pages) and network
errors (missing resources).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemeError",
    "ConstraintError",
    "SchemaError",
    "PNFError",
    "AlgebraError",
    "NotComputableError",
    "PredicateError",
    "WrapperError",
    "ExtractionError",
    "WebError",
    "ResourceNotFound",
    "FetchError",
    "TransientFetchError",
    "RetriesExhaustedError",
    "StatisticsError",
    "MetricCardinalityError",
    "JournalError",
    "ExecutionModeError",
    "OptionsError",
    "AdmissionRejected",
    "OptimizerError",
    "QueryError",
    "ParseError",
    "MaterializationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemeError(ReproError):
    """An ADM web scheme is malformed (unknown page-scheme, bad link, ...)."""


class ConstraintError(SchemeError):
    """A link or inclusion constraint references attributes that do not exist
    or do not have the required types."""


class SchemaError(ReproError):
    """A relation schema is malformed or an operation references an unknown
    attribute."""


class PNFError(SchemaError):
    """A nested relation violates Partitioned Normal Form."""


class AlgebraError(ReproError):
    """A navigational-algebra expression is ill-formed."""


class NotComputableError(AlgebraError):
    """An expression was asked to execute against the web but has leaves that
    are not entry points (paper, Section 4)."""


class PredicateError(AlgebraError):
    """A predicate references attributes missing from its input schema."""


class WrapperError(ReproError):
    """A page could not be wrapped into a nested tuple."""


class ExtractionError(WrapperError):
    """A specific extraction rule failed against a page's DOM."""


class WebError(ReproError):
    """Base class for simulated-network failures."""


class ResourceNotFound(WebError):
    """A GET or HEAD was issued for a URL the server does not serve."""

    def __init__(self, url: str):
        super().__init__(f"no resource at URL {url!r}")
        self.url = url


class FetchError(WebError):
    """A page could not be fetched over the (simulated) network."""


class TransientFetchError(FetchError):
    """One fetch attempt failed with a retryable condition: a timeout or a
    5xx-style server error, as injected by a
    :class:`~repro.web.server.FaultPolicy`."""

    def __init__(self, url: str, kind: str = "timeout", attempt: int = 1):
        super().__init__(
            f"transient {kind} fetching {url!r} (attempt {attempt})"
        )
        self.url = url
        self.kind = kind
        self.attempt = attempt


class RetriesExhaustedError(FetchError):
    """Every attempt allowed by the :class:`~repro.web.client.RetryPolicy`
    failed transiently; the fetch is given up."""

    def __init__(self, url: str, attempts: int, last: Exception | None = None):
        super().__init__(f"giving up on {url!r} after {attempts} attempts")
        self.url = url
        self.attempts = attempts
        self.last = last


class StatisticsError(ReproError):
    """Site statistics are missing a parameter required by the cost model."""


class MetricCardinalityError(ReproError, ValueError):
    """A metric instrument was asked to create more label series than its
    configured bound allows.  Unbounded label cardinality (a URL or a
    request id used as a label) silently turns a fixed-size registry into
    a memory leak, so the guard fails loudly instead.

    Doubles as a :class:`ValueError` (like :class:`ExecutionModeError`) so
    generic configuration validators keep working."""

    def __init__(self, name: str, limit: int):
        super().__init__(
            f"metric {name!r} exceeded its label-cardinality bound "
            f"({limit} series); use a lower-cardinality label"
        )
        self.metric = name
        self.limit = limit


class JournalError(ReproError):
    """An event journal is unreadable, fails correlation-id validation,
    or cannot reconstruct the request a replay asked for."""


class ExecutionModeError(ReproError, ValueError):
    """An ``execution=`` argument named an unknown mode.

    Doubles as a :class:`ValueError` (mirroring the
    ``FetchConfig.max_workers`` validation) so callers that validate
    configuration generically keep working."""


class OptionsError(ReproError, ValueError):
    """A :class:`~repro.options.QueryOptions` bundle (or a request or
    engine given one) is invalid.

    Doubles as a :class:`ValueError` (like :class:`ExecutionModeError`) so
    generic configuration validators keep working."""


class AdmissionRejected(ReproError):
    """The multi-query server's bounded admission queue is full (or the
    server is closed); the request was refused without being enqueued.
    Back off and resubmit — nothing was executed on the request's behalf."""


class OptimizerError(ReproError):
    """The optimizer could not produce a plan (e.g. no default navigation)."""


class QueryError(ReproError):
    """A conjunctive query is malformed with respect to the external view."""


class ParseError(QueryError):
    """The SQL-ish conjunctive query text could not be parsed."""


class MaterializationError(ReproError):
    """The materialized store is inconsistent with the requested operation."""
