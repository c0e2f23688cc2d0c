"""Cardinality estimation and the cost function C(E) (paper, Section 6.2).

Step 1 estimates the cardinality of every intermediate result:

* ``|P1 ∘ L|   = |P1| × |L|``
* ``|σ_A(P)|   = |P| × s_A``
* ``|R1 ⋈ R2|  = |R1| × |R2| × σ_join``
* ``|π_A(P)|   = |P| / r_A``  (equivalently min(card, Π c_A))
* navigation preserves the source cardinality (each tuple joins with the
  single page its link references; the paper's ``|R → P| = |P|`` is the
  default-navigation special case where R covers all of P — both agree on
  every worked example).

Step 2 sums operator costs: only network operations cost anything —
an entry-point access costs 1 page, and a navigation ``R →L P`` costs the
number of *distinct* links followed, ``|π_L(R)| = |R| / r_L`` (capped by
``|P|``: a navigation can never download more pages than exist).

Statistics are reached through field provenance, so estimates work at any
depth.  Attributes whose provenance is unknown (e.g. computed columns) fall
back to :data:`DEFAULT_SELECTIVITY`.

**Cache awareness.**  When the engine runs with a cross-query
:class:`~repro.web.cache.PageCache`, part of a plan's pointer set may
already be held locally, and a cached page costs a light connection
instead of a download.  A :class:`CacheEstimate` carries the expected hit
rate per page-scheme — typically derived from the actual cache contents
via :meth:`CacheEstimate.from_cache` — and the model then charges each
network access of scheme *P* an effective ``(1 - h_P) + h_P × w`` pages
instead of 1, so Algorithm 1 can re-rank plans under a warm cache.  ``w``
(``light_weight``) is what one revalidation costs in page units; the
system has one value for it, ``SiteEnv.light_weight`` (HEAD seconds over
GET seconds of the site's mean page, ≈ 0.43 on the 1998 modem), shared by
the planner, the advisor and ``warm_up``.  Cheap, not free: at 0 every
plan over a full cache ties and the one touching the most pages is as good
as any; the planner breaks priced ties by cold C(E) all the same.
Without an estimate the model is exactly the paper's C(E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.adm.scheme import WebScheme
from repro.algebra.ast import (
    EntryPointScan,
    Expr,
    ExternalRelScan,
    FollowLink,
    Join,
    Project,
    Select,
    Unnest,
)
from repro.algebra.predicates import AttrEq, Comparison, In
from repro.algebra.visitors import walk
from repro.errors import OptimizerError, StatisticsError
from repro.nested.schema import Field
from repro.optimizer.memo import PlanMemo
from repro.stats.statistics import SiteStatistics

__all__ = [
    "CacheEstimate",
    "CostModel",
    "DEFAULT_SELECTIVITY",
    "StrategyCrossover",
    "crossover_winner",
]

#: Selectivity assumed for predicates whose attribute has no usable
#: statistics (conservative-ish; the paper assumes full knowledge).
DEFAULT_SELECTIVITY = 0.1


def crossover_winner(chase_cost: float, join_cost: float) -> str:
    """Which of the Section 7 strategies wins at the given page costs.

    The single source of truth for the X-OVER decision rule: pointer
    chase wins at ``chase_cost <= join_cost`` (ties go to the chase — it
    needs no local join work, footnote 10), pointer join otherwise.
    ``bench_crossover.py`` charts this rule over site shapes and the
    adaptive executor (:mod:`repro.engine.adaptive`) applies it to
    *observed* fan-outs mid-query; both must call this function rather
    than re-deriving the comparison.
    """
    return "chase" if chase_cost <= join_cost else "join"


@dataclass(frozen=True)
class StrategyCrossover:
    """A costed pointer-chase vs pointer-join comparison (Section 7)."""

    chase_cost: float
    join_cost: float

    @property
    def winner(self) -> str:
        """``"chase"`` or ``"join"`` per :func:`crossover_winner`."""
        return crossover_winner(self.chase_cost, self.join_cost)


@dataclass
class _Estimate:
    cardinality: float
    cost: float
    #: bytes this node itself downloads (0 unless it touches the network)
    own_bytes: float = 0.0


class CacheEstimate:
    """Expected page-cache hit rate per page-scheme, for cache-aware costing.

    ``hit_rates`` maps page-scheme names to the expected fraction of that
    scheme's accesses served from the cache (clamped to [0, 1]; unknown
    schemes default to 0 — a cold cache).  ``light_weight`` is the cost, in
    page units, charged for each avoided download — the light connection
    that revalidates the cached copy.  ``SiteEnv.cache_estimate`` passes the
    network-derived ``SiteEnv.light_weight``; the default 0 ("cached pages
    are free") is for decompositions like the advisor's, which charges the
    upkeep separately.

    Instances are immutable, hashable (planner memo keys), and usually
    built from a live cache with :meth:`from_cache` — the optimizer
    inspecting its own prior accesses, not the web.
    """

    __slots__ = ("_rates", "light_weight")

    def __init__(
        self,
        hit_rates: Mapping[str, float],
        light_weight: float = 0.0,
    ):
        if not 0.0 <= light_weight <= 1.0:
            raise OptimizerError(
                f"light_weight must be in [0, 1], got {light_weight!r}"
            )
        self._rates: tuple[tuple[str, float], ...] = tuple(
            sorted(
                (name, min(1.0, max(0.0, float(rate))))
                for name, rate in hit_rates.items()
            )
        )
        self.light_weight = float(light_weight)

    @classmethod
    def from_cache(
        cls,
        cache,
        stats: SiteStatistics,
        light_weight: float = 0.0,
    ) -> "CacheEstimate":
        """Hit rates observed from actual cache contents: for each
        page-scheme, the fraction of its |P| pages currently cached."""
        rates: dict[str, float] = {}
        for scheme_name, count in cache.scheme_counts().items():
            try:
                card = stats.card(scheme_name)
            except StatisticsError:
                continue
            if card > 0:
                rates[scheme_name] = count / card
        return cls(rates, light_weight=light_weight)

    @property
    def hit_rates(self) -> dict[str, float]:
        return dict(self._rates)

    def rate(self, scheme_name: str) -> float:
        """Expected hit rate for ``scheme_name`` (0 when unknown)."""
        return dict(self._rates).get(scheme_name, 0.0)

    def page_factor(self, scheme_name: str) -> float:
        """Effective page cost of one access to a page of ``scheme_name``:
        a miss costs a full download, a hit costs ``light_weight``."""
        h = self.rate(scheme_name)
        return (1.0 - h) + h * self.light_weight

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CacheEstimate)
            and self._rates == other._rates
            and self.light_weight == other.light_weight
        )

    def __hash__(self) -> int:
        return hash((self._rates, self.light_weight))

    def __repr__(self) -> str:
        rates = ", ".join(f"{n}={r:.2f}" for n, r in self._rates)
        return f"CacheEstimate({rates or 'cold'}, light={self.light_weight})"


class CostModel:
    """Estimates cardinalities and the page-access cost of NALG plans.

    With a :class:`CacheEstimate` attached the network costs shrink by the
    expected hit rate of the accessed page-scheme; without one (the
    default) every estimate is exactly the paper's Section 6.2 model.
    """

    def __init__(
        self,
        scheme: WebScheme,
        stats: SiteStatistics,
        cache_estimate: Optional[CacheEstimate] = None,
    ):
        self.scheme = scheme
        self.stats = stats
        self.cache_estimate = cache_estimate

    def with_cache(self, estimate: Optional[CacheEstimate]) -> "CostModel":
        """A view of this model costing plans under ``estimate``."""
        return CostModel(self.scheme, self.stats, cache_estimate=estimate)

    def _network_factor(self, scheme_name: str) -> float:
        if self.cache_estimate is None:
            return 1.0
        return self.cache_estimate.page_factor(scheme_name)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def cardinality(self, expr: Expr) -> float:
        """Estimated number of tuples in the result of ``expr``."""
        return self.estimate(expr, PlanMemo(self.scheme)).cardinality

    def cost(self, expr: Expr) -> float:
        """C(E): estimated number of pages downloaded to evaluate ``expr``."""
        return self.estimate(expr, PlanMemo(self.scheme)).cost

    def bytes_cost(self, expr: Expr) -> float:
        """Estimated bytes downloaded (footnote 8's refinement: pages of
        different page-schemes have different sizes — e.g. the Introduction
        prefers the *smaller* database-conference list when page counts
        tie).  Computed as Σ over network operations of
        (pages fetched × average page size of the fetched scheme)."""
        return self.total_bytes(expr, PlanMemo(self.scheme))

    def total_bytes(self, expr: Expr, memo: PlanMemo) -> float:
        """:meth:`bytes_cost` from ``memo``'s estimates.  The terms are added
        in preorder: float addition is not associative, and plans are
        ranked on this sum."""
        total = 0.0
        stack = [expr]
        while stack:
            node = stack.pop()
            total += self.estimate(node, memo).own_bytes
            stack.extend(reversed(node.children()))
        return total

    def local_work(self, expr: Expr) -> float:
        """Estimated local (zero-network-cost) tuple operations.

        Footnote 10: "in a more refined cost model, also some expensive
        local operations should be taken into account".  Purely
        informational — plans are still ranked by page accesses — but it
        quantifies the trade the pointer-join strategy makes: fewer pages,
        more local joining.  Counted as: tuples produced by unnests and
        selections, plus the input sizes of every join.
        """
        memo = PlanMemo(self.scheme)
        total = 0.0
        for _, node in walk(expr):
            if isinstance(node, (Unnest, Select)):
                total += self.estimate(node, memo).cardinality
            elif isinstance(node, Join):
                total += (
                    self.estimate(node.left, memo).cardinality
                    + self.estimate(node.right, memo).cardinality
                )
        return total

    def estimated_makespan(
        self,
        expr: Expr,
        workers: int = 1,
        execution: str = "staged",
        network=None,
    ) -> float:
        """Estimated simulated seconds to run ``expr`` at ``workers``
        parallel connections under the given execution mode.

        Pages are the paper's cost; *makespan* is what concurrency and
        pipelining actually buy.  Staged execution drains the lanes at
        every operator barrier, so each network stage (entry access or
        follow-link) costs ``ceil(pages / k)`` rounds of its per-page
        time.  Pipelined execution overlaps stages on one shared
        timeline, bounded below by the two classical limits: total work
        divided by ``k``, and the critical path (one page through every
        stage of the deepest chain).  The pipelined estimate is clamped
        to never exceed the staged one — the executor's benchmarked
        guarantee.

        ``network`` is the :class:`~repro.web.network.NetworkModel` used
        for per-page seconds (default: the 1998 modem the simulated
        client uses).  Estimates ignore retries and light connections.
        """
        from repro.engine.pipeline import coerce_execution

        mode = coerce_execution(execution)
        if workers < 1:
            raise OptimizerError(f"workers must be >= 1, got {workers}")
        if network is None:
            from repro.web.network import MODEM_1998

            network = MODEM_1998
        stages, critical = self._network_stages(
            expr, network, PlanMemo(self.scheme)
        )
        k = workers
        staged = sum(math.ceil(pages / k) * t for pages, t in stages)
        # adaptive execution prunes pages but never adds any, so the
        # static estimate is an upper bound with the staged access pattern
        if mode in ("staged", "adaptive"):
            return staged
        total_work = sum(pages * t for pages, t in stages)
        return min(staged, max(total_work / k, critical))

    def strategy_crossover(
        self, chase_expr: Expr, join_expr: Expr
    ) -> StrategyCrossover:
        """Cost a pointer-chase plan against a pointer-join plan.

        Returns a :class:`StrategyCrossover` whose ``winner`` applies
        :func:`crossover_winner` to the two C(E) estimates — the same
        rule the X-OVER benchmark charts and the adaptive executor
        re-evaluates with observed fan-outs at runtime.
        """
        return StrategyCrossover(
            chase_cost=self.cost(chase_expr), join_cost=self.cost(join_expr)
        )

    def _network_stages(
        self, expr: Expr, network, memo: PlanMemo
    ) -> tuple[list[tuple[float, float]], float]:
        """Per-stage ``(pages, seconds_per_page)`` in execution order,
        plus the critical-path seconds (one page per stage down the
        deepest chain of the plan)."""
        if isinstance(expr, EntryPointScan):
            t = network.get_seconds(int(self._page_size(expr.page_scheme)))
            return [(self._network_factor(expr.page_scheme), t)], t
        if isinstance(expr, FollowLink):
            stages, critical = self._network_stages(expr.child, network, memo)
            own = (
                self.estimate(expr, memo).cost
                - self.estimate(expr.child, memo).cost
            )
            target = memo.schemas.link_type(expr).target
            t = network.get_seconds(int(self._page_size(target)))
            return stages + [(own, t)], critical + t
        if isinstance(expr, Join):
            left, lcrit = self._network_stages(expr.left, network, memo)
            right, rcrit = self._network_stages(expr.right, network, memo)
            return left + right, max(lcrit, rcrit)
        children = list(expr.children())
        if not children:
            return [], 0.0
        return self._network_stages(children[0], network, memo)

    def _page_size(self, scheme_name: str) -> float:
        try:
            return self.stats.avg_page_bytes(scheme_name)
        except StatisticsError:
            return 1.0  # degrade to page counting

    def explain(self, expr: Expr) -> str:
        """Per-node breakdown of cardinality and cost (indented tree).

        Delegates to the shared plan-report renderer
        (:mod:`repro.obs.explain`) — the same code path that produces
        ``SiteEnv.explain``'s annotated tree, minus the measured columns.
        """
        from repro.obs.explain import render_cost_explain

        return render_cost_explain(expr, self)

    # ------------------------------------------------------------------ #
    # estimation
    # ------------------------------------------------------------------ #

    def estimate(self, expr: Expr, memo: PlanMemo) -> _Estimate:
        """Cardinality, C(E) and own bytes of ``expr`` — one walk, each
        node estimated once per ``memo`` and model."""
        key = (self, id(expr))
        found = memo.estimates.get(key)
        if found is None:
            found = memo.estimates[key] = (expr, self._estimate(expr, memo))
        return found[1]

    def _estimate(self, expr: Expr, memo: PlanMemo) -> _Estimate:
        if isinstance(expr, EntryPointScan):
            factor = self._network_factor(expr.page_scheme)
            return _Estimate(
                cardinality=1.0,
                cost=factor,
                own_bytes=factor * self._page_size(expr.page_scheme),
            )
        if isinstance(expr, ExternalRelScan):
            raise OptimizerError(
                f"cannot cost external relation {expr.name!r}; expand it "
                "with rule 1 first"
            )
        if isinstance(expr, Unnest):
            return self._estimate_unnest(expr, memo)
        if isinstance(expr, Select):
            return self._estimate_select(expr, memo)
        if isinstance(expr, Project):
            return self._estimate_project(expr, memo)
        if isinstance(expr, Join):
            return self._estimate_join(expr, memo)
        if isinstance(expr, FollowLink):
            return self._estimate_follow(expr, memo)
        raise OptimizerError(f"cannot cost {type(expr).__name__}")

    def _distinct(self, field: Field) -> float:
        """c_A via provenance; None when unknown."""
        prov = field.provenance
        if prov is None:
            return 0.0
        try:
            return self.stats.distinct(prov.base_scheme, prov.path)
        except StatisticsError:
            return 0.0

    def _estimate_unnest(self, expr: Unnest, memo: PlanMemo) -> _Estimate:
        child = self.estimate(expr.child, memo)
        field = memo.schemas.of(expr.child).field(expr.attr)
        size = 1.0
        if field.provenance is not None:
            try:
                size = self.stats.avg_list(
                    field.provenance.base_scheme, field.provenance.path
                )
            except StatisticsError:
                size = 1.0
        return _Estimate(child.cardinality * size, child.cost)

    def _estimate_select(self, expr: Select, memo: PlanMemo) -> _Estimate:
        child = self.estimate(expr.child, memo)
        selectivity = 1.0
        schema = memo.schemas.of(expr.child)
        for atom in expr.predicate.atoms:
            if isinstance(atom, Comparison):
                c = self._distinct(schema.field(atom.attr))
                selectivity *= (1.0 / c) if c else DEFAULT_SELECTIVITY
            elif isinstance(atom, In):
                c = self._distinct(schema.field(atom.attr))
                s = (1.0 / c) if c else DEFAULT_SELECTIVITY
                selectivity *= min(1.0, len(atom.values) * s)
            elif isinstance(atom, AttrEq):
                c1 = self._distinct(schema.field(atom.left))
                c2 = self._distinct(schema.field(atom.right))
                top = max(c1, c2)
                selectivity *= (1.0 / top) if top else DEFAULT_SELECTIVITY
        return _Estimate(child.cardinality * selectivity, child.cost)

    def _estimate_project(self, expr: Project, memo: PlanMemo) -> _Estimate:
        child = self.estimate(expr.child, memo)
        schema = memo.schemas.of(expr.child)
        return _Estimate(
            self.projected(child.cardinality, schema, expr.in_names()), child.cost
        )

    def projected(self, cardinality: float, schema, in_names) -> float:
        """``|π_A(P)| = |P| / r_A  ==  min(card, Π c_A)`` under uniformity:
        the cardinality of a projection on ``in_names`` over ``cardinality``
        tuples of ``schema``."""
        distinct_product = 1.0
        for in_name in in_names:
            field = schema.field(in_name)
            c = 0.0 if field.is_list else self._distinct(field)
            if not c:  # a list, or no statistics: the input's cardinality
                return cardinality
            distinct_product *= c
        return min(cardinality, distinct_product)

    def _estimate_join(self, expr: Join, memo: PlanMemo) -> _Estimate:
        left = self.estimate(expr.left, memo)
        right = self.estimate(expr.right, memo)
        selectivity = 1.0
        for lname, rname in expr.on:
            lfield = memo.schemas.of(expr.left).field(lname)
            rfield = memo.schemas.of(expr.right).field(rname)
            if lfield.provenance is not None and rfield.provenance is not None:
                selectivity *= self.stats.join_selectivity(
                    lfield.provenance.base_scheme,
                    lfield.provenance.path,
                    rfield.provenance.base_scheme,
                    rfield.provenance.path,
                )
            else:
                selectivity *= DEFAULT_SELECTIVITY
        card = left.cardinality * right.cardinality * selectivity
        return _Estimate(card, left.cost + right.cost)

    def _estimate_follow(self, expr: FollowLink, memo: PlanMemo) -> _Estimate:
        child = self.estimate(expr.child, memo)
        link_field = memo.schemas.of(expr.child).field(expr.link_attr)
        target = memo.schemas.link_type(expr).target
        try:
            target_card = self.stats.card(target)
        except StatisticsError:
            target_card = float("inf")
        repetition = 1.0
        if link_field.provenance is not None:
            try:
                repetition = self.stats.repetition(
                    link_field.provenance.base_scheme, link_field.provenance.path
                )
            except StatisticsError:
                repetition = 1.0
        distinct_links = min(child.cardinality / repetition, target_card)
        cost = child.cost + distinct_links * self._network_factor(target)
        return _Estimate(
            cardinality=child.cardinality,
            cost=cost,
            own_bytes=(cost - child.cost) * self._page_size(target),
        )
