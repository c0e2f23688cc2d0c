"""Query optimization (paper, Section 6).

* :mod:`repro.optimizer.cost` — cardinality estimation and the cost
  function C(E) of Section 6.2 (network page accesses only);
* :mod:`repro.optimizer.rules` — the rewrite rules of Section 6.1 (rules
  2–9), implemented over qualified-name NALG expressions; the enumerative
  ones are the entries of :data:`~repro.optimizer.rules.RULES`;
* :mod:`repro.optimizer.rewriter` — closure/fixpoint drivers that apply
  rule sets over whole plans with deduplication;
* :mod:`repro.optimizer.memo` — the per-call memo and the table the
  planning stages keep their rows in;
* :mod:`repro.optimizer.planner` — Algorithm 1: its steps as stages over
  one table, and cost-based selection.
"""

from repro.optimizer.cost import CacheEstimate, CostModel
from repro.optimizer.rules import RULES, Rule, push_selections
from repro.optimizer.rewriter import closure
from repro.optimizer.planner import (
    PlanCandidate,
    Planner,
    PlannerOptions,
    PlannerResult,
)

__all__ = [
    "CacheEstimate",
    "CostModel",
    "RULES",
    "Rule",
    "push_selections",
    "closure",
    "Planner",
    "PlannerOptions",
    "PlanCandidate",
    "PlannerResult",
]
