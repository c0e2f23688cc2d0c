"""Multi-query server with plan-level shared work.

The paper's engine answers one query at a time; this package turns it
into a concurrent service without changing a single answer.  Queries
arrive as :class:`~repro.options.QueryRequest` envelopes, pass a bounded
admission queue, are scheduled fairly across tenants, and — the
interesting part — share *plan-level* work: plans whose access paths
start with the same navigation prefix (entry point + follow-link chain)
have that prefix evaluated once by a shared navigator, with the page
batch fanned out to every subscriber and the hand-off recorded in each
query's ``pages_shared`` counter.

See ``docs/SERVER.md`` for the architecture and the sharing invariants,
and :mod:`repro.qa.oracle` (the ``server`` execution dimension) for the
machine-checked guarantee that a shared run reproduces each query's solo
answer bit-for-bit.
"""

from repro.server.prefix import (
    PrefixSignature,
    SharedNavigator,
    navigation_prefixes,
)
from repro.server.service import (
    QueryOutcome,
    QueryServer,
    ServerConfig,
    ServerStatus,
    SharedExecution,
    Ticket,
    WarmupReport,
    execute_shared,
)

__all__ = [
    "PrefixSignature",
    "SharedNavigator",
    "navigation_prefixes",
    "QueryOutcome",
    "QueryServer",
    "ServerConfig",
    "ServerStatus",
    "SharedExecution",
    "Ticket",
    "execute_shared",
    "WarmupReport",
]
