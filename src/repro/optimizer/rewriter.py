"""Rewrite drivers.

:func:`closure` saturates a set of plans under a set of enumerative rules:
every rule is tried at every node of every plan, and newly produced plans
are fed back until no new plan appears (or a safety cap is hit).  Plans are
deduplicated by identity: nodes are interned as written, so two plans are
one object exactly when they render alike.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from repro.adm.scheme import WebScheme
from repro.algebra.ast import Expr
from repro.algebra.visitors import replace_child
from repro.errors import OptimizerError
from repro.obs.rewrite import RewriteTrace
from repro.optimizer.memo import PlanMemo
from repro.optimizer.rules import RewriteRule

__all__ = ["closure"]

#: Safety cap on the number of distinct plans one closure may produce.
MAX_PLANS = 2000


def _one_step(
    node: Expr, rules: Sequence[RewriteRule], memo: PlanMemo, steps: dict
) -> list[tuple[RewriteRule, Expr, Expr]]:
    """Every rewriting of ``node`` one rule application away, as (rule, the
    subexpression it replaced, ``node`` with the replacement spliced in):
    positions in preorder, rules in order at each.  Found once per node
    (``steps``, by identity: each is a subtree of a plan the closure holds)
    — the plans of a closure share most of their subtrees."""
    found = steps.get(id(node))
    if found is None:
        found = steps[id(node)] = [
            (rule, node, replacement)
            for rule in rules
            for replacement in rule.rewrite(node, memo)
        ]
        for index, kid in enumerate(node.children()):
            for rule, where, rewritten in _one_step(kid, rules, memo, steps):
                found.append((rule, where, replace_child(node, index, rewritten)))
    return found


def closure(
    exprs: Iterable[Expr],
    rules: Sequence[RewriteRule],
    scheme: WebScheme,
    max_plans: int = MAX_PLANS,
    trace: Optional[RewriteTrace] = None,
    phase: str = "",
    memo: Optional[PlanMemo] = None,
) -> list[Expr]:
    """All plans reachable from ``exprs`` by applying ``rules`` anywhere.

    ``trace`` (optional) records every *kept* rule application — the ones
    whose output survives dedup — as a :class:`~repro.obs.rewrite.
    RewriteStep` under ``phase``, keyed by the plan's canonical rendering,
    which is one-to-one with the identity the closure deduplicates by, so
    lineage chains match the plans returned.  ``memo`` is the planning
    call's (a bare call makes its own).
    """
    memo = memo or PlanMemo(scheme)
    seen: dict[int, Expr] = {}  # id → plan, which pins the id
    for expr in exprs:
        seen.setdefault(id(expr), expr)
    queue = deque(seen.values())
    steps: dict[int, list] = {}  # for this rule set only
    while queue:
        current = queue.popleft()
        for rule, where, rewritten in _one_step(current, rules, memo, steps):
            if id(rewritten) in seen:
                continue
            if len(seen) >= max_plans:
                raise OptimizerError(
                    f"rewrite closure exceeded {max_plans} plans; "
                    "the query is too irregular for exhaustive "
                    "enumeration"
                )
            seen[id(rewritten)] = rewritten
            queue.append(rewritten)
            if trace is not None:
                trace.record(
                    phase,
                    type(rule).__name__,
                    memo.key(rewritten),
                    parent=memo.key(current),
                    subexpr=memo.key(where, compact=True),
                    expr=rewritten,
                )
    return list(seen.values())
