"""repro — a reproduction of *Efficient Queries over Web Views*
(Mecca, Mendelzon, Merialdo; EDBT 1998 / RT-DIA-31-1998).

The library offers relational views over (simulated) web sites, translates
conjunctive queries into navigation plans over the hypertext, optimizes the
plans with constraint-driven rewrite rules under a network-access cost
model, and maintains materialized views lazily with light connections.

Quickstart::

    from repro import university

    env = university()
    result = env.query(
        "SELECT PName, email FROM Professor, ProfDept "
        "WHERE Professor.PName = ProfDept.PName "
        "AND ProfDept.DName = 'Computer Science'"
    )
    print(result.relation.to_table())
    print("pages downloaded:", result.pages)

See ``DESIGN.md`` for the architecture and ``EXPERIMENTS.md`` for the
reproduced results.
"""

from repro.adm import (
    SchemeBuilder,
    WebScheme,
    PageScheme,
    EntryPoint,
    LinkConstraint,
    InclusionConstraint,
    TEXT,
    IMAGE,
    link,
    list_of,
)
from repro.algebra import (
    EntryPointScan,
    ExternalRelScan,
    Select,
    Project,
    Join,
    Unnest,
    FollowLink,
    Predicate,
    Comparison,
    AttrEq,
    In,
    render_expr,
    render_plan_tree,
    is_computable,
    parse_navigation,
)
from repro.engine import RemoteExecutor, LocalExecutor, ExecutionResult
from repro.nested import Relation, RelationSchema, Field
from repro.optimizer import CostModel, Planner, PlannerResult
from repro.sitegen import (
    UniversityConfig,
    BibliographyConfig,
    build_university_site,
    build_bibliography_site,
    SiteMutator,
)
from repro.sites import (
    SiteEnv,
    university,
    bibliography,
    movies,
    university_view,
    bibliography_view,
    movie_view,
)
from repro.stats import SiteStatistics, exact_statistics, estimate_statistics
from repro.views import (
    ExternalView,
    ExternalRelation,
    DefaultNavigation,
    ConjunctiveQuery,
    RelOccurrence,
    parse_query,
    translate,
)
from repro.errors import (
    AdmissionRejected,
    FetchError,
    OptionsError,
    RetriesExhaustedError,
    TransientFetchError,
)
from repro.materialized import (
    AdvisorReport,
    MaterializedEngine,
    MaterializedStore,
    WorkloadQuery,
    advise,
    batch_refresh,
)
from repro.options import DEFAULT_OPTIONS, QueryOptions, QueryRequest
from repro.server import (
    QueryServer,
    ServerConfig,
    SharedNavigator,
    WarmupReport,
)
from repro.web import (
    SimulatedWebServer,
    WebClient,
    AccessLog,
    CachePolicy,
    CostSummary,
    FaultPolicy,
    FetchConfig,
    FetchRecord,
    NetworkModel,
    PageCache,
    RetryPolicy,
)
from repro.wrapper import registry_for_scheme, WrapperRegistry

__version__ = "1.0.0"

__all__ = [
    # model
    "SchemeBuilder", "WebScheme", "PageScheme", "EntryPoint",
    "LinkConstraint", "InclusionConstraint", "TEXT", "IMAGE", "link",
    "list_of",
    # algebra
    "EntryPointScan", "ExternalRelScan", "Select", "Project", "Join",
    "Unnest", "FollowLink", "Predicate", "Comparison", "AttrEq", "In",
    "render_expr", "render_plan_tree", "is_computable", "parse_navigation",
    # engine
    "RemoteExecutor", "LocalExecutor", "ExecutionResult",
    # nested relations
    "Relation", "RelationSchema", "Field",
    # optimizer
    "CostModel", "Planner", "PlannerResult",
    # sites
    "UniversityConfig", "BibliographyConfig", "build_university_site",
    "build_bibliography_site", "SiteMutator", "SiteEnv", "university",
    "bibliography", "movies", "university_view", "bibliography_view",
    "movie_view",
    # stats
    "SiteStatistics", "exact_statistics", "estimate_statistics",
    # query options / server
    "QueryOptions", "QueryRequest", "DEFAULT_OPTIONS", "OptionsError",
    "QueryServer", "ServerConfig", "SharedNavigator", "AdmissionRejected",
    "WarmupReport",
    # materialized views
    "MaterializedStore", "MaterializedEngine",
    "batch_refresh", "advise", "WorkloadQuery", "AdvisorReport",
    # views
    "ExternalView", "ExternalRelation", "DefaultNavigation",
    "ConjunctiveQuery", "RelOccurrence", "parse_query", "translate",
    # web
    "SimulatedWebServer", "WebClient", "AccessLog", "NetworkModel",
    "CostSummary", "FaultPolicy", "FetchConfig", "FetchRecord",
    "RetryPolicy", "FetchError", "TransientFetchError",
    "RetriesExhaustedError", "PageCache", "CachePolicy",
    # wrappers
    "registry_for_scheme", "WrapperRegistry",
    "__version__",
]
