"""One-call environments: site + scheme + view + statistics + planner.

These are the entry points most users (and all examples/benchmarks) start
from:

* :func:`university` — the paper's Figure 1 site with the Section 5
  external view (``Dept``, ``Professor``, ``Course``, ``CourseInstructor``,
  ``ProfDept``);
* :func:`bibliography` — the Introduction's DBLP-like site with a
  publication-centric view whose two default navigations are exactly the
  "via conferences" and "via authors" access paths the paper contrasts;
* :func:`movies` — a site with optional links (independent movies without
  a director page), exercising null-value semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace
from typing import Optional, Union

from repro.adm.scheme import WebScheme
from repro.algebra.ast import EntryPointScan, Expr
from repro.engine.remote import ExecutionResult, RemoteExecutor
from repro.errors import OptionsError
from repro.options import DEFAULT_OPTIONS, QueryOptions
from repro.optimizer.cost import CacheEstimate, CostModel
from repro.optimizer.memo import Table
from repro.optimizer.planner import Planner, PlannerResult
from repro.sitegen.bibliography import BibliographyConfig, build_bibliography_site
from repro.sitegen.fuzz import FuzzConfig, build_fuzzed_site, fuzzed_view
from repro.sitegen.movies import MovieConfig, build_movie_site
from repro.sitegen.university import UniversityConfig, build_university_site
from repro.stats.exact import exact_statistics
from repro.stats.statistics import SiteStatistics
from repro.views.conjunctive import ConjunctiveQuery
from repro.views.external import DefaultNavigation, ExternalRelation, ExternalView
from repro.views.sql import parse_query
from repro.web.cache import NO_CACHE, CachePolicy, PageCache
from repro.web.client import WebClient
from repro.wrapper.conventions import registry_for_scheme
from repro.wrapper.wrapper import WrapperRegistry

__all__ = [
    "SiteEnv",
    "site_env",
    "university",
    "bibliography",
    "movies",
    "fuzzed",
    "university_view",
    "bibliography_view",
    "movie_view",
]

#: parsed SQL texts a :class:`SiteEnv` keeps, like the planner's ``MAX_MEMO``
MAX_PARSED = 64


@dataclass
class SiteEnv:
    """Everything needed to pose queries against a generated site."""

    scheme: WebScheme
    view: ExternalView
    client: WebClient
    registry: WrapperRegistry
    stats: SiteStatistics
    cost_model: CostModel
    planner: Planner
    executor: RemoteExecutor
    site: object  # UniversitySite or BibliographySite
    page_cache: Optional[PageCache] = None
    _parsed: Table = field(
        default_factory=lambda: Table(MAX_PARSED), init=False, repr=False
    )

    # ------------------------------------------------------------------ #
    # the end-to-end user API
    # ------------------------------------------------------------------ #

    def sql(self, text: str) -> ConjunctiveQuery:
        """Parse a conjunctive SQL query against this view, once per text
        (a :class:`ConjunctiveQuery` is frozen; a ParseError is not kept)."""
        return self._parsed.get(parse_query, text, self.view)

    def enable_cache(
        self,
        capacity: int = 256,
        policy: Union[CachePolicy, str] = CachePolicy.CROSS_QUERY,
        shards: int = 1,
    ) -> PageCache:
        """Attach a page cache to this environment and return it.

        Subsequent :meth:`plan` / :meth:`execute` / :meth:`query` calls use
        it by default; pass ``cache="off"`` to :meth:`plan` or
        ``options=QueryOptions(cache="off")`` to bypass it for one call.
        ``shards`` partitions it into URL-hash LRUs with per-shard locks
        (:class:`~repro.web.cache.PageCache`)."""
        self.page_cache = PageCache(
            capacity=capacity, policy=CachePolicy.coerce(policy), shards=shards
        )
        return self.page_cache

    def _cache_for(
        self, cache: Union[PageCache, CachePolicy, str, None]
    ) -> Optional[PageCache]:
        """Normalize a cache spec.

        ``None`` means the environment default (``page_cache``, possibly
        none at all); a :class:`PageCache` is used as-is; a policy (or its
        string name) selects that policy on the environment cache,
        creating it on first use — except ``"off"``, which bypasses any
        cache for this call."""
        if cache is None:
            return self.page_cache
        if isinstance(cache, PageCache):
            return cache
        policy = CachePolicy.coerce(cache)
        if policy is CachePolicy.OFF:
            return NO_CACHE
        if self.page_cache is None:
            return self.enable_cache(policy=policy)
        self.page_cache.policy = policy
        return self.page_cache

    def resolve_options(self, options: Optional[QueryOptions]) -> QueryOptions:
        """The environment's single option-resolution point: ``options``
        (None: :data:`~repro.options.DEFAULT_OPTIONS`) with its cache spec
        resolved against the environment cache *exactly once*, so the
        resolved :class:`PageCache` (or None) threads through planning and
        execution unchanged.  :meth:`query`, :meth:`execute`,
        :meth:`explain` and the multi-query server all call it."""
        if options is None:
            options = DEFAULT_OPTIONS
        elif not isinstance(options, QueryOptions):
            raise OptionsError(
                f"options must be a QueryOptions, got {options!r}"
            )
        return options.with_cache(self._cache_for(options.cache))

    @property
    def light_weight(self) -> float:
        """The system's one price, in page units, for revalidating a cached
        page: the client's :meth:`~repro.web.network.NetworkModel.
        light_weight` at this site's mean page size."""
        return self.client.network.light_weight(self.stats.mean_page_bytes())

    def cache_estimate(
        self,
        cache: Union[PageCache, CachePolicy, str, None] = None,
    ) -> Optional[CacheEstimate]:
        """Per-page-scheme hit rates from the current cache contents, each
        hit priced at :attr:`light_weight`, or None when no (active,
        non-empty) cache applies."""
        resolved = self._cache_for(cache)
        if (
            resolved is None
            or resolved.policy is CachePolicy.OFF
            or len(resolved) == 0
        ):
            return None
        return CacheEstimate.from_cache(
            resolved, self.stats, light_weight=self.light_weight
        )

    def enumerate_plans(
        self,
        query: ConjunctiveQuery | str,
        *,
        cache: Union[PageCache, CachePolicy, str, None] = None,
        limit: Optional[int] = None,
    ) -> list:
        """All valid candidate plans for ``query``, cheapest first.

        The full plan space of Algorithm 1 (not just the winner), for
        tools — like the :mod:`repro.qa` differential oracle — that
        execute every candidate and compare the answers."""
        if isinstance(query, str):
            query = self.sql(query)
        return self.planner.enumerate_plans(
            query, cache_estimate=self.cache_estimate(cache), limit=limit
        )

    def plan(
        self,
        query: ConjunctiveQuery | str,
        *,
        cache: Union[PageCache, CachePolicy, str, None] = None,
    ) -> PlannerResult:
        """Optimize a query (Algorithm 1).

        When a cache applies (the environment cache, or ``cache=``), the
        planner costs candidates with hit rates derived from the actual
        cache contents (a hit costs :attr:`light_weight`, not nothing), so
        a warm cache can flip the chosen plan."""
        if isinstance(query, str):
            query = self.sql(query)
        return self.planner.plan_query(
            query, cache_estimate=self.cache_estimate(cache)
        )

    def execute(
        self,
        plan: Expr,
        *,
        options: Optional[QueryOptions] = None,
    ) -> ExecutionResult:
        """Execute one plan against the live site.

        ``options`` (a :class:`~repro.options.QueryOptions`) bundles the
        fetch pool, retry policy, cache spec, execution mode (one of
        :data:`~repro.engine.pipeline.EXECUTION_MODES`), pipeline tuning,
        and tracer;
        see that class for field semantics.  Defaults preserve the
        client's behaviour (serial fetching under the 1998 network model,
        default retries).  The cache spec is resolved against the
        environment cache exactly once (see :meth:`resolve_options`).
        """
        opts = self.resolve_options(options)
        return self.executor.execute(plan, options=opts)

    def query(
        self,
        query: ConjunctiveQuery | str,
        *,
        options: Optional[QueryOptions] = None,
    ) -> ExecutionResult:
        """Optimize and execute: the paper's end-to-end query path.

        With an active cache the optimizer sees its contents (cache-aware
        costing) and the executor serves hits from it.  ``options`` is
        validated *before* planning — an unknown execution mode raises
        :class:`~repro.errors.ExecutionModeError` instead of silently
        running staged."""
        opts = self.resolve_options(options)
        result = self.plan(query, cache=opts.cache)
        return self.executor.execute(result.best.expr, options=opts)

    def explain(
        self,
        query: ConjunctiveQuery | str,
        *,
        analyze: bool = False,
        options: Optional[QueryOptions] = None,
        plan_index: Optional[int] = None,
    ) -> str:
        """Human-readable optimizer report: considered plans, *why* the
        chosen plan won (the rule-by-rule rewrite lineage), its annotated
        tree, and its estimated costs (pages / bytes / local work).

        ``plan_index`` explains (and, with ``analyze=True``, executes)
        candidate ``N`` of the sorted plan space instead of the chosen
        plan — the index QA cell ids carry (``q/pN/...``), so any matrix
        cell's plan can be reproduced and analyzed directly.

        ``analyze=True`` additionally *executes* the chosen plan under a
        recording tracer (EXPLAIN ANALYZE): every operator row gains a
        measured column — own pages downloaded (summing exactly to the
        run's total), tuples produced, simulated seconds — and the report
        ends with the run's measured :class:`~repro.web.client.
        CostSummary`.  Pass ``options.tracer`` (a :class:`~repro.obs.trace.
        RecordingTracer`) to keep the recorded spans for export.  With
        ``options.execution="adaptive"`` the analyzed run may fire runtime
        relevance prunes and rule-8/9 switches; every fired decision is
        appended to the report (docs/ADAPTIVE.md — under a switched join
        the operator spans pair with the *decision* order, not the
        printed tree).
        """
        from repro.obs.explain import render_annotated_tree
        from repro.obs.trace import RecordingTracer, spans_by_node

        if isinstance(query, str):
            query = self.sql(query)
        opts = self.resolve_options(options)
        planned = self.planner.plan_query(
            query, cache_estimate=self.cache_estimate(opts.cache), trace=True
        )
        best = planned.best
        if plan_index is not None:
            if not 0 <= plan_index < len(planned.candidates):
                raise OptionsError(
                    f"plan_index {plan_index} out of range "
                    f"(query has {len(planned.candidates)} candidates)"
                )
            best = planned.candidates[plan_index]
        lines = [planned.describe(self.scheme)]
        lines.append("")
        lines.append("why this plan:")
        lines.append(planned.why())
        lines.append("")
        spans = None
        result = None
        if analyze:
            recorder = (
                opts.tracer
                if isinstance(opts.tracer, RecordingTracer)
                else RecordingTracer()
            )
            result = self.executor.execute(
                best.expr, options=_dc_replace(opts, tracer=recorder)
            )
            spans = spans_by_node(recorder)
        lines.append(
            "chosen plan:"
            if plan_index is None
            else f"candidate plan {plan_index}:"
        )
        lines.append(
            render_annotated_tree(
                best.expr, self.cost_model, scheme=self.scheme, spans=spans
            )
        )
        lines.append("")
        lines.append(
            f"estimated: {best.cost:.1f} pages, "
            f"{best.bytes_cost:.0f} bytes, "
            f"{self.cost_model.local_work(best.expr):.0f} local tuple ops, "
            f"{best.cardinality:.1f} result rows"
        )
        if result is not None:
            cost = result.cost
            lines.append(
                f"measured:  {cost.pages:.0f} pages, "
                f"{cost.bytes:.0f} bytes, "
                f"{cost.light_connections:.0f} light connections "
                f"({cost.priced_pages(self.light_weight):.1f} priced pages), "
                f"{cost.pages_saved:.0f} pages saved, "
                f"{cost.simulated_seconds:.2f}s simulated, "
                f"{len(result.relation)} result rows"
            )
            if result.adaptive is not None and result.adaptive.decisions:
                lines.extend(result.adaptive.summary_lines())
        return "\n".join(lines)

    def refresh_statistics(self) -> None:
        """Recompute exact statistics (after site mutations)."""
        self.stats = exact_statistics(self.scheme, self.site.server, self.registry)
        self.cost_model = CostModel(self.scheme, self.stats)
        self.planner = Planner(self.view, self.cost_model)
        # adaptive execution re-plans and re-prices against the refreshed
        # model, exactly like new plans do
        self.executor.planner = self.planner
        self.executor.cost_model = self.cost_model


def site_env(site, view: ExternalView) -> SiteEnv:
    """Wire a generated site and its external view into a full environment
    (conventional wrappers, exact statistics, planner, executor)."""
    registry = registry_for_scheme(site.scheme)
    stats = exact_statistics(site.scheme, site.server, registry)
    cost_model = CostModel(site.scheme, stats)
    client = WebClient(site.server)
    planner = Planner(view, cost_model)
    return SiteEnv(
        scheme=site.scheme,
        view=view,
        client=client,
        registry=registry,
        stats=stats,
        cost_model=cost_model,
        planner=planner,
        executor=RemoteExecutor(
            site.scheme,
            client,
            registry,
            planner=planner,
            cost_model=cost_model,
        ),
        site=site,
    )


#: Backwards-compatible private alias (pre-QA callers).
_env = site_env


# --------------------------------------------------------------------- #
# the university view (paper, Section 5, items 1–5)
# --------------------------------------------------------------------- #


def university_view(scheme: WebScheme) -> ExternalView:
    """The five external relations of Section 5 with their default
    navigations (two each for ``CourseInstructor`` and ``ProfDept``)."""
    profs = (
        EntryPointScan("ProfListPage")
        .unnest("ProfListPage.ProfList")
        .follow("ProfListPage.ProfList.ToProf")
    )
    depts = (
        EntryPointScan("DeptListPage")
        .unnest("DeptListPage.DeptList")
        .follow("DeptListPage.DeptList.ToDept")
    )
    courses = (
        EntryPointScan("SessionListPage")
        .unnest("SessionListPage.SesList")
        .follow("SessionListPage.SesList.ToSes")
        .unnest("SessionPage.CourseList")
        .follow("SessionPage.CourseList.ToCourse")
    )

    view = ExternalView(scheme)
    view.add(
        ExternalRelation(
            name="Dept",
            attrs=("DName", "Address"),
            navigations=(
                DefaultNavigation.of(
                    depts,
                    {"DName": "DeptPage.DName", "Address": "DeptPage.Address"},
                ),
            ),
        )
    )
    view.add(
        ExternalRelation(
            name="Professor",
            attrs=("PName", "Rank", "email"),
            navigations=(
                DefaultNavigation.of(
                    profs,
                    {
                        "PName": "ProfPage.PName",
                        "Rank": "ProfPage.Rank",
                        "email": "ProfPage.email",
                    },
                ),
            ),
        )
    )
    view.add(
        ExternalRelation(
            name="Course",
            attrs=("CName", "Session", "Description", "Type"),
            navigations=(
                DefaultNavigation.of(
                    courses,
                    {
                        "CName": "CoursePage.CName",
                        "Session": "CoursePage.Session",
                        "Description": "CoursePage.Description",
                        "Type": "CoursePage.Type",
                    },
                ),
            ),
        )
    )
    view.add(
        ExternalRelation(
            name="CourseInstructor",
            attrs=("CName", "PName"),
            navigations=(
                DefaultNavigation.of(
                    profs.unnest("ProfPage.CourseList"),
                    {
                        "CName": "ProfPage.CourseList.CName",
                        "PName": "ProfPage.PName",
                    },
                ),
                DefaultNavigation.of(
                    courses,
                    {"CName": "CoursePage.CName", "PName": "CoursePage.PName"},
                ),
            ),
        )
    )
    view.add(
        ExternalRelation(
            name="ProfDept",
            attrs=("PName", "DName"),
            navigations=(
                DefaultNavigation.of(
                    profs,
                    {"PName": "ProfPage.PName", "DName": "ProfPage.DName"},
                ),
                DefaultNavigation.of(
                    depts.unnest("DeptPage.ProfList"),
                    {
                        "PName": "DeptPage.ProfList.PName",
                        "DName": "DeptPage.DName",
                    },
                ),
            ),
        )
    )
    return view


def university(
    config: Optional[UniversityConfig] = None,
) -> SiteEnv:
    """Build the Figure 1 site and its Section 5 relational view."""
    site = build_university_site(config)
    return _env(site, university_view(site.scheme))


# --------------------------------------------------------------------- #
# the bibliography view (Introduction example)
# --------------------------------------------------------------------- #


def bibliography_view(scheme: WebScheme) -> ExternalView:
    """A publication-centric view with two complete default navigations:
    via conferences (Introduction's path 1) and via authors (path 4)."""
    via_conferences = (
        EntryPointScan("BibHomePage")
        .follow("BibHomePage.ToConfList")
        .unnest("ConfListPage.ConfList")
        .follow("ConfListPage.ConfList.ToConf")
        .unnest("ConfPage.EditionList")
        .follow("ConfPage.EditionList.ToEdition")
        .unnest("EditionPage.PaperList")
        .unnest("EditionPage.PaperList.AuthorList")
    )
    via_authors = (
        EntryPointScan("BibHomePage")
        .follow("BibHomePage.ToAuthorList")
        .unnest("AuthorListPage.AuthorList")
        .follow("AuthorListPage.AuthorList.ToAuthor")
        .unnest("AuthorPage.PubList")
    )
    editions = (
        EntryPointScan("BibHomePage")
        .follow("BibHomePage.ToConfList")
        .unnest("ConfListPage.ConfList")
        .follow("ConfListPage.ConfList.ToConf")
        .unnest("ConfPage.EditionList")
    )

    view = ExternalView(scheme)
    view.add(
        ExternalRelation(
            name="PaperAuthor",
            attrs=("ConfName", "Year", "Title", "AName"),
            navigations=(
                DefaultNavigation.of(
                    via_conferences,
                    {
                        "ConfName": "EditionPage.ConfName",
                        "Year": "EditionPage.Year",
                        "Title": "EditionPage.PaperList.Title",
                        "AName": "EditionPage.PaperList.AuthorList.AName",
                    },
                ),
                DefaultNavigation.of(
                    via_authors,
                    {
                        "ConfName": "AuthorPage.PubList.ConfName",
                        "Year": "AuthorPage.PubList.Year",
                        "Title": "AuthorPage.PubList.Title",
                        "AName": "AuthorPage.AName",
                    },
                ),
            ),
        )
    )
    view.add(
        ExternalRelation(
            name="Edition",
            attrs=("ConfName", "Year", "Editors"),
            navigations=(
                DefaultNavigation.of(
                    editions,
                    {
                        "ConfName": "ConfPage.ConfName",
                        "Year": "ConfPage.EditionList.Year",
                        "Editors": "ConfPage.EditionList.Editors",
                    },
                ),
            ),
        )
    )
    return view


def bibliography(
    config: Optional[BibliographyConfig] = None,
) -> SiteEnv:
    """Build the Introduction's bibliography site and its view."""
    site = build_bibliography_site(config)
    return _env(site, bibliography_view(site.scheme))


# --------------------------------------------------------------------- #
# the movie view (optional-link showcase)
# --------------------------------------------------------------------- #


def movie_view(scheme: WebScheme) -> ExternalView:
    """Three external relations over the movie site.

    ``MovieDirector`` is defined through the director-side navigation only:
    the movie-side *link* navigation would silently drop independent movies
    (optional ``ToDirector``), so it does not materialize the full extent.
    """
    movies_nav = (
        EntryPointScan("MovieListPage")
        .unnest("MovieListPage.Movies")
        .follow("MovieListPage.Movies.ToMovie")
    )
    directors_nav = (
        EntryPointScan("DirectorListPage")
        .unnest("DirectorListPage.Directors")
        .follow("DirectorListPage.Directors.ToDirector")
    )
    view = ExternalView(scheme)
    view.add(
        ExternalRelation(
            "Movie",
            ("Title", "Year", "Genre"),
            (
                DefaultNavigation.of(
                    movies_nav,
                    {
                        "Title": "MoviePage.Title",
                        "Year": "MoviePage.Year",
                        "Genre": "MoviePage.Genre",
                    },
                ),
            ),
        )
    )
    view.add(
        ExternalRelation(
            "Director",
            ("DName",),
            (
                DefaultNavigation.of(
                    directors_nav, {"DName": "DirectorPage.DName"}
                ),
            ),
        )
    )
    view.add(
        ExternalRelation(
            "MovieDirector",
            ("Title", "DName"),
            (
                DefaultNavigation.of(
                    directors_nav.unnest("DirectorPage.Filmography"),
                    {
                        "Title": "DirectorPage.Filmography.Title",
                        "DName": "DirectorPage.DName",
                    },
                ),
            ),
        )
    )
    return view


def movies(config: Optional[MovieConfig] = None) -> SiteEnv:
    """Build the movie site (optional links) and its view."""
    site = build_movie_site(config)
    return _env(site, movie_view(site.scheme))


# --------------------------------------------------------------------- #
# fuzzed sites (seeded pseudo-random schemes; repro.sitegen.fuzz)
# --------------------------------------------------------------------- #


def fuzzed(config: Union[FuzzConfig, int, None] = None) -> SiteEnv:
    """Build a seeded pseudo-random site (see :mod:`repro.sitegen.fuzz`)
    and its external view.  An ``int`` is shorthand for
    ``FuzzConfig(seed=...)``."""
    if isinstance(config, int):
        config = FuzzConfig(seed=config)
    site = build_fuzzed_site(config)
    return _env(site, fuzzed_view(site))
