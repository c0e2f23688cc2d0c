"""Workload-driven view selection for the materialized store.

The paper materializes the *whole* ADM scheme; which page-schemes are
actually worth storing depends on the workload.  Following the
storage-budgeted view selection of Goasdoué et al. ("View Selection in
Semantic Web Databases"), the advisor picks the set of page-schemes that
maximizes

    Σ_q  frequency(q) × (downloads q saves when the set is materialized)
  − Σ_P  |P| × (light_weight + mutation_rate)        for chosen schemes P

subject to  Σ_P |P| ≤ page_budget.

Both sides are priced by the existing cache-aware
:class:`~repro.optimizer.cost.CostModel`:

* the *benefit* of materializing scheme P for plan E is the drop in C(E)
  when P's accesses become local — ``cost(E) - cost(E | hit_rate(P)=1)``
  with a :class:`~repro.optimizer.cost.CacheEstimate` of
  ``{P: 1.0}, light_weight=0``.  Because the model charges each access a
  per-scheme factor, these per-scheme savings are *additive*: summing
  them over any set S gives exactly the cost drop of materializing S,
  which is what makes the budgeted selection a 0/1 knapsack solvable
  exactly;
* the *upkeep* of keeping P fresh for one maintenance round is one light
  connection per stored page (priced at ``light_weight`` pages each —
  ``SiteEnv.light_weight``, what the planner charges for a cached page) plus
  ``mutation_rate × |P|`` full re-downloads (the sitegen mutation stream's
  touch fraction).

``benchmarks/bench_advisor.py`` replays a mutation stream against the
advisor's choice, all-views, no-views, and a random set, and asserts the
advisor's total measured cost beats both all and none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.algebra.ast import Expr
from repro.errors import MaterializationError, StatisticsError
from repro.obs.metrics import METRICS
from repro.optimizer.cost import CacheEstimate, CostModel
from repro.options import QueryRequest

__all__ = [
    "WorkloadQuery",
    "ViewCandidate",
    "AdvisorReport",
    "advise",
    "scheme_download_profile",
    "random_view_set",
]


@dataclass(frozen=True)
class WorkloadQuery:
    """One workload entry: a request and how often it runs per round.

    ``frequency`` is the expected number of executions between two
    maintenance rounds — the unit the upkeep term is charged in."""

    request: QueryRequest
    frequency: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.request, QueryRequest):
            raise MaterializationError(
                f"request must be a QueryRequest, got {self.request!r}"
            )
        if self.frequency < 0:
            raise MaterializationError(
                f"frequency must be non-negative, got {self.frequency!r}"
            )


@dataclass(frozen=True)
class ViewCandidate:
    """One page-scheme's costed case for materialization."""

    scheme: str
    #: stored pages the scheme would occupy (|P| from site statistics)
    pages: int
    #: workload downloads avoided per round when materialized
    downloads_saved: float
    #: revalidation upkeep per round (lights at light_weight + mutations)
    upkeep: float

    @property
    def net_benefit(self) -> float:
        return self.downloads_saved - self.upkeep


@dataclass
class AdvisorReport:
    """The advisor's decision and the numbers behind it."""

    candidates: list = field(default_factory=list)
    chosen: tuple = ()
    page_budget: Optional[int] = None
    mutation_rate: float = 0.0
    light_weight: float = 0.0
    #: modeled per-round workload cost (downloads + weighted lights +
    #: upkeep) under three policies, for the report table
    estimates: dict = field(default_factory=dict)

    @property
    def chosen_pages(self) -> int:
        by_name = {c.scheme: c for c in self.candidates}
        return sum(by_name[name].pages for name in self.chosen)

    def materialize_set(self) -> frozenset:
        """The chosen page-schemes, ready for ``retain_schemes=``."""
        return frozenset(self.chosen)

    def __repr__(self) -> str:
        return (
            f"AdvisorReport(chosen={sorted(self.chosen)}, "
            f"{self.chosen_pages} pages"
            + (f"/{self.page_budget} budget" if self.page_budget else "")
            + f", est {self.estimates.get('chosen', 0.0):.1f} vs "
            f"none {self.estimates.get('none', 0.0):.1f})"
        )


def scheme_download_profile(
    cost_model: CostModel, plan: Expr
) -> dict[str, float]:
    """Per-page-scheme expected downloads of one execution of ``plan``.

    Computed through the cache-aware model itself: the scheme's share is
    the drop in C(E) when that scheme alone is fully cached for free.
    The shares sum to the cold C(E) (the model's per-access factors are
    linear per scheme), so this is an exact decomposition, not a
    heuristic attribution."""
    cold_model = cost_model.with_cache(None)
    cold = cold_model.cost(plan)
    profile: dict[str, float] = {}
    for scheme_name in cost_model.scheme.page_schemes:
        covered = cost_model.with_cache(
            CacheEstimate({scheme_name: 1.0}, light_weight=0.0)
        )
        share = cold - covered.cost(plan)
        if share > 1e-12:
            profile[scheme_name] = share
    return profile


def _resolve_plan(env, request: QueryRequest) -> Expr:
    if request.plan is not None:
        return request.plan
    return env.plan(request.query).best.expr


def _choose(
    candidates: Sequence[ViewCandidate], page_budget: Optional[int]
) -> tuple[str, ...]:
    """Pick the net-benefit-maximizing set under the page budget.

    Net benefits are additive across schemes, so this is a 0/1 knapsack:
    solved exactly by DP over the budget when it is tractable, greedily by
    benefit density otherwise (only reachable with budgets in the
    millions of pages).  Without a budget, every positive-net candidate
    is taken — the unconstrained optimum."""
    profitable = [c for c in candidates if c.net_benefit > 0 and c.pages >= 0]
    if page_budget is None:
        return tuple(sorted(c.scheme for c in profitable))
    if page_budget <= 0:
        return ()
    profitable = [c for c in profitable if c.pages <= page_budget]
    if not profitable:
        return ()
    if page_budget * len(profitable) <= 2_000_000:
        # exact DP: best[w] = (value, chosen) at weight exactly <= w
        best: list[tuple[float, tuple[str, ...]]] = [
            (0.0, ()) for _ in range(page_budget + 1)
        ]
        for cand in profitable:
            for w in range(page_budget, cand.pages - 1, -1):
                value, names = best[w - cand.pages]
                candidate_value = value + cand.net_benefit
                if candidate_value > best[w][0] + 1e-12:
                    best[w] = (candidate_value, names + (cand.scheme,))
        return tuple(sorted(max(best)[1]))
    chosen: list[str] = []
    remaining = page_budget
    for cand in sorted(
        profitable,
        key=lambda c: (-(c.net_benefit / max(c.pages, 1)), c.scheme),
    ):
        if cand.pages <= remaining:
            chosen.append(cand.scheme)
            remaining -= cand.pages
    return tuple(sorted(chosen))


def advise(
    env,
    workload: Sequence[WorkloadQuery],
    *,
    mutation_rate: float,
    page_budget: Optional[int] = None,
    light_weight: Optional[float] = None,
) -> AdvisorReport:
    """Choose which page-schemes to materialize for ``workload``.

    ``env`` is a :class:`~repro.sites.SiteEnv`; plans come from each
    request's pre-chosen ``plan`` or the environment's planner.
    ``mutation_rate`` is the fraction of pages the sitegen mutation stream
    touches per maintenance round (``perturb_server``'s ``fraction``);
    ``page_budget`` caps the stored pages (None: unlimited);
    ``light_weight`` prices one light connection in page units, shared by
    the benefit and upkeep sides (and by the benchmark's total-cost
    metric); by default it is ``env.light_weight``, the price the planner
    charges for a cached page.

    Returns an :class:`AdvisorReport`; feed ``report.materialize_set()``
    to ``retain_schemes=`` of a (sharded) store, or let
    :meth:`QueryServer.warm_up <repro.server.service.QueryServer.warm_up>`
    act on it."""
    if not 0.0 <= mutation_rate <= 1.0:
        raise MaterializationError(
            f"mutation_rate must be in [0, 1], got {mutation_rate!r}"
        )
    if not workload:
        raise MaterializationError("advise() needs a non-empty workload")
    if light_weight is None:
        light_weight = env.light_weight
    entries = []
    for item in workload:
        if not isinstance(item, WorkloadQuery):
            raise MaterializationError(
                f"workload entries must be WorkloadQuery, got {item!r}"
            )
        entries.append((item.frequency, _resolve_plan(env, item.request)))

    # workload downloads saved per scheme, additively decomposed via the
    # cache-aware cost model
    saved: dict[str, float] = {}
    for frequency, plan in entries:
        for scheme_name, share in scheme_download_profile(
            env.cost_model, plan
        ).items():
            saved[scheme_name] = saved.get(scheme_name, 0.0) + frequency * share

    candidates: list[ViewCandidate] = []
    for scheme_name in env.scheme.page_schemes:
        try:
            pages = int(env.stats.card(scheme_name))
        except StatisticsError:
            continue  # no cardinality: cannot budget it, skip
        candidates.append(
            ViewCandidate(
                scheme=scheme_name,
                pages=pages,
                downloads_saved=saved.get(scheme_name, 0.0),
                upkeep=pages * (light_weight + mutation_rate),
            )
        )
    chosen = _choose(candidates, page_budget)

    def estimate_for(selected: frozenset) -> float:
        """Modeled per-round cost of running the workload with ``selected``
        materialized: un-covered downloads at full price, covered accesses
        at light_weight (the max_age-trusting engine pays the refresh
        instead), plus the refresh upkeep of the selected schemes."""
        est = CacheEstimate(
            {name: 1.0 for name in selected}, light_weight=0.0
        )
        model = env.cost_model.with_cache(est if selected else None)
        query_cost = sum(f * model.cost(plan) for f, plan in entries)
        upkeep = sum(c.upkeep for c in candidates if c.scheme in selected)
        return query_cost + upkeep

    report = AdvisorReport(
        candidates=candidates,
        chosen=chosen,
        page_budget=page_budget,
        mutation_rate=mutation_rate,
        light_weight=light_weight,
        estimates={
            "chosen": estimate_for(frozenset(chosen)),
            "all": estimate_for(frozenset(c.scheme for c in candidates)),
            "none": estimate_for(frozenset()),
        },
    )
    METRICS.counter(
        "repro_advisor_runs_total", "advisor decisions by chosen-set size"
    ).inc(chosen=len(chosen))
    return report


def random_view_set(
    candidates: Sequence[ViewCandidate],
    page_budget: Optional[int],
    seed: int = 0,
) -> tuple[str, ...]:
    """A seeded random baseline under the same budget (benchmark control:
    what workload-blind selection costs)."""
    rng = random.Random(seed)
    names = [c.scheme for c in candidates]
    rng.shuffle(names)
    by_name = {c.scheme: c for c in candidates}
    chosen: list[str] = []
    used = 0
    for name in names:
        pages = by_name[name].pages
        if page_budget is not None and used + pages > page_budget:
            continue
        if rng.random() < 0.5:
            chosen.append(name)
            used += pages
    return tuple(sorted(chosen))
