"""Rewrite drivers.

:func:`closure` saturates a set of plans under a set of enumerative rules
(entries of :data:`~repro.optimizer.rules.RULES`): every rule is tried at
every node of every plan, and newly produced plans are fed back until no
new plan appears (or a safety cap is hit); :func:`saturate` is the same
breadth-first search over any one-step rewriting (the planner's rule 7
reads only a plan's root π).  Plans are deduplicated by identity: nodes
are interned as written, so two plans are one object exactly when they
render alike.  Each kept rule application can be noted in ``steps``, as
``(phase, rule name, plan rewritten, subexpression replaced, plan
produced)`` — what a :class:`~repro.obs.rewrite.RewriteTrace` records.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional, Sequence

from repro.adm.scheme import WebScheme
from repro.algebra.ast import Expr
from repro.algebra.visitors import replace_child
from repro.errors import OptimizerError
from repro.optimizer.memo import PlanMemo
from repro.optimizer.rules import Rule

__all__ = ["closure", "saturate"]

#: Safety cap on the number of distinct plans one closure may produce.
MAX_PLANS = 2000


def _one_step(
    node: Expr, rules: Sequence[Rule], memo: PlanMemo, found: dict
) -> list[tuple[str, Expr, Expr]]:
    """Every rewriting of ``node`` one rule application away, as (rule name,
    the subexpression it replaced, ``node`` with the replacement spliced in):
    positions in preorder, rules in order at each.  Found once per node
    (``found``, by identity: each is a subtree of a plan the closure holds)
    — the plans of a closure share most of their subtrees."""
    steps = found.get(id(node))
    if steps is None:
        steps = found[id(node)] = [
            (rule.name, node, replacement)
            for rule in rules
            for replacement in rule.rewrite(node, memo)
        ]
        for index, kid in enumerate(node.children()):
            for rule, where, rewritten in _one_step(kid, rules, memo, found):
                steps.append((rule, where, replace_child(node, index, rewritten)))
    return steps


def closure(
    exprs: Iterable[Expr],
    rules: Sequence[Rule],
    scheme: WebScheme,
    max_plans: int = MAX_PLANS,
    steps: Optional[list] = None,
    phase: str = "",
    memo: Optional[PlanMemo] = None,
) -> list[Expr]:
    """All plans reachable from ``exprs`` by applying ``rules`` anywhere,
    each kept application noted in ``steps`` under ``phase``.  ``memo`` is
    the planning call's (a bare call makes its own)."""
    memo = memo or PlanMemo(scheme)
    found: dict[int, list] = {}  # for this rule set only
    return saturate(
        exprs, lambda node: _one_step(node, rules, memo, found),
        max_plans, steps, phase,
    )


def saturate(
    exprs: Iterable[Expr],
    one_step: Callable[[Expr], list[tuple[str, Expr, Expr]]],
    max_plans: int,
    steps: Optional[list],
    phase: str,
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
            if steps is not None:
                steps.append((phase, rule, current, where, rewritten))
    return list(seen.values())
