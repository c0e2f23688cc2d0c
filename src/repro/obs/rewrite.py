"""Rewrite lineage: which of rules 1–9 produced which candidate plan.

Algorithm 1 (paper, Section 6.3) grows the plan space by expanding external
relations (rule 1) and saturating the result under rewrite rules 2–9.  The
planner can record that growth in a :class:`RewriteTrace`: every step notes
the rule that fired, the plan it fired on, the subexpression it replaced,
the candidate it produced, and the :class:`~repro.optimizer.cost.CostModel`
estimate of the new candidate — so a :class:`~repro.optimizer.planner.
PlannerResult` can answer *why this plan*: the lineage chain from the
chosen plan back to its rule-1 expansion, and in particular whether
pointer-join (rule 8) or pointer-chase (rule 9) produced it.

Plans are identified by their canonical rendering
(:func:`repro.algebra.printer.render_expr`), which is one-to-one with the
interned identity the rewriter deduplicates by, so the first recorded
producer of a key matches the plan the closure actually kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["RewriteStep", "RewriteTrace", "STRATEGY_RULES"]

#: The two access-path strategies of Section 7 (Examples 7.1/7.2): the
#: rules whose firing decides pointer-join vs pointer-chase.
STRATEGY_RULES = {
    "PointerJoin": "pointer-join (rule 8)",
    "PointerChase": "pointer-chase (rule 9)",
}


@dataclass(frozen=True)
class RewriteStep:
    """One application of a rewrite rule (or improvement pass)."""

    phase: str                 #: planner step, e.g. "join rules (8/9)"
    rule: str                  #: rule class/function name, e.g. "PointerJoin"
    result: str                #: canonical rendering of the produced plan
    parent: Optional[str] = None   #: rendering of the plan rewritten (None: a root)
    subexpr: str = ""          #: the subexpression the rule replaced
    cost: Optional[float] = None   #: C(E) estimate of the produced plan

    def describe(self) -> str:
        cost = f"  [C≈{self.cost:.1f} pages]" if self.cost is not None else ""
        at = f" at {self.subexpr}" if self.subexpr else ""
        return f"{self.rule} ({self.phase}){at}{cost}"


class RewriteTrace:
    """Candidate lineage for one planner run.

    ``cost_fn`` (optional) estimates C(E) for each produced plan; failures
    (ill-typed intermediates) record ``cost=None`` — exactly the plans the
    planner's validation step would discard anyway."""

    def __init__(self, cost_fn: Optional[Callable] = None):
        self.steps: list[RewriteStep] = []
        self._producer: dict[str, RewriteStep] = {}
        self._cost_fn = cost_fn

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def record(
        self,
        phase: str,
        rule: str,
        result: str,
        parent: Optional[str] = None,
        subexpr: str = "",
        expr=None,
    ) -> None:
        """Record one rule application producing plan key ``result``."""
        cost: Optional[float] = None
        if expr is not None and self._cost_fn is not None:
            try:
                cost = float(self._cost_fn(expr))
            except Exception:
                cost = None
        step = RewriteStep(
            phase=phase,
            rule=rule,
            result=result,
            parent=parent,
            subexpr=subexpr,
            cost=cost,
        )
        self.steps.append(step)
        # first producer wins: it is the application whose output the
        # rewriter's dedup actually kept
        self._producer.setdefault(result, step)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.steps)

    def producer(self, plan_key: str) -> Optional[RewriteStep]:
        """The step that first produced ``plan_key`` (None for unknowns)."""
        return self._producer.get(plan_key)

    def lineage(self, plan_key: str) -> list[RewriteStep]:
        """Chain of steps from the rule-1 root down to ``plan_key``."""
        chain: list[RewriteStep] = []
        seen: set[str] = set()
        key: Optional[str] = plan_key
        while key is not None and key not in seen:
            seen.add(key)
            step = self._producer.get(key)
            if step is None:
                break
            chain.append(step)
            key = step.parent
        chain.reverse()
        return chain

    def rules_fired(self, plan_key: str) -> list[str]:
        """Rule names along the lineage of ``plan_key``, root first."""
        return [step.rule for step in self.lineage(plan_key)]

    def strategy(self, plan_key: str) -> Optional[str]:
        """The access-path strategy that produced ``plan_key``:
        ``"pointer-join (rule 8)"`` or ``"pointer-chase (rule 9)"`` when
        rule 8/9 fired along its lineage (the *last* such firing decides),
        else None (the plan came straight from expansion/merging)."""
        decisive = None
        for step in self.lineage(plan_key):
            if step.rule in STRATEGY_RULES:
                decisive = STRATEGY_RULES[step.rule]
        return decisive

    def describe(self, plan_key: str) -> str:
        """Multi-line lineage report for one plan ("why this plan")."""
        chain = self.lineage(plan_key)
        if not chain:
            return "(no recorded lineage — plan predates this trace)"
        lines = []
        for i, step in enumerate(chain):
            lines.append(("  " * i) + ("└ " if i else "") + step.describe())
        strategy = self.strategy(plan_key)
        lines.append(
            f"strategy: {strategy}"
            if strategy
            else "strategy: direct navigation (no rule 8/9 firing)"
        )
        return "\n".join(lines)

    def summary(self) -> dict[str, int]:
        """Firing counts per rule across the whole run."""
        counts: dict[str, int] = {}
        for step in self.steps:
            counts[step.rule] = counts.get(step.rule, 0) + 1
        return dict(sorted(counts.items()))

    def __repr__(self) -> str:
        return (
            f"RewriteTrace({len(self.steps)} steps, "
            f"{len(self._producer)} plans)"
        )
