"""Rewrite drivers.

:func:`closure` saturates a set of plans under a set of enumerative rules:
every rule is tried at every node of every plan, and newly produced plans
are fed back until no new plan appears (or a safety cap is hit);
:func:`saturate` is the same breadth-first search over any one-step
rewriting (the planner's rule 7 reads only a plan's root π).  Plans are
deduplicated by identity: nodes are interned as written, so two plans are
one object exactly when they render alike.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional, Sequence

from repro.adm.scheme import WebScheme
from repro.algebra.ast import Expr
from repro.algebra.visitors import replace_child
from repro.errors import OptimizerError
from repro.obs.rewrite import RewriteTrace
from repro.optimizer.memo import PlanMemo
from repro.optimizer.rules import RewriteRule

__all__ = ["closure", "saturate"]

#: Safety cap on the number of distinct plans one closure may produce.
MAX_PLANS = 2000


def _one_step(
    node: Expr, rules: Sequence[RewriteRule], memo: PlanMemo, steps: dict
) -> list[tuple[str, Expr, Expr]]:
    """Every rewriting of ``node`` one rule application away, as (rule name,
    the subexpression it replaced, ``node`` with the replacement spliced in):
    positions in preorder, rules in order at each.  Found once per node
    (``steps``, by identity: each is a subtree of a plan the closure holds)
    — the plans of a closure share most of their subtrees."""
    found = steps.get(id(node))
    if found is None:
        found = steps[id(node)] = [
            (type(rule).__name__, node, replacement)
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
    steps: dict[int, list] = {}  # for this rule set only
    return saturate(
        exprs, lambda node: _one_step(node, rules, memo, steps),
        max_plans, trace, phase, memo,
    )


def saturate(
    exprs: Iterable[Expr],
    one_step: Callable[[Expr], list[tuple[str, Expr, Expr]]],
    max_plans: int,
    trace: Optional[RewriteTrace],
    phase: str,
    memo: PlanMemo,
) -> list[Expr]:
    """:func:`closure` over any one-step rewriting: ``one_step(plan)`` is
    every (rule name, the subexpression replaced, rewritten plan) one
    application away.  Breadth first: the inputs, then each one's new
    rewritings in input order, then theirs."""
    seen: dict[int, Expr] = {}  # id → plan, which pins the id
    for expr in exprs:
        seen.setdefault(id(expr), expr)
    queue = deque(seen.values())
    while queue:
        current = queue.popleft()
        for rule, where, rewritten in one_step(current):
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
                    rule,
                    memo.key(rewritten),
                    parent=memo.key(current),
                    subexpr=memo.key(where, compact=True),
                    expr=rewritten,
                )
    return list(seen.values())
