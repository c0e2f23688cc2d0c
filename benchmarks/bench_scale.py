"""SCALE — query cost vs site size.

The paper's core economic argument: a selective query's cost should track
the *selected* data, not the site size — that is what distinguishes a
navigation plan chosen by the optimizer from exhaustive navigation.
Regenerates a scaling table: the Example 7.2 query on sites from 50 to 800
courses, reporting the best plan's measured pages against the site size,
plus planner latency.
"""

import time

import pytest

from repro.sitegen import UniversityConfig
from repro.sites import university
from repro.views.sql import parse_query

from _bench_utils import record, table

SQL = (
    "SELECT Professor.PName, email FROM Course, CourseInstructor, "
    "Professor, ProfDept WHERE Course.CName = CourseInstructor.CName "
    "AND CourseInstructor.PName = Professor.PName "
    "AND Professor.PName = ProfDept.PName "
    "AND ProfDept.DName = 'Computer Science' AND Type = 'Graduate'"
)

SIZES = [
    (3, 20, 50),
    (5, 40, 100),
    (8, 80, 200),
    (12, 160, 400),
    (16, 320, 800),
]


@pytest.fixture(scope="module")
def scaling():
    rows = []
    raw = []
    for n_depts, n_profs, n_courses in SIZES:
        env = university(
            UniversityConfig(
                n_depts=n_depts, n_profs=n_profs, n_courses=n_courses
            )
        )
        query = parse_query(SQL, env.view)
        started = time.perf_counter()
        planned = env.planner.plan_query(query)
        plan_ms = (time.perf_counter() - started) * 1000
        result = env.execute(planned.best.expr)
        site_pages = len(env.site.server)
        rows.append(
            {
                "site pages": site_pages,
                "best cost": f"{planned.best.cost:.1f}",
                "measured": result.pages,
                "fraction": f"{result.pages / site_pages:.1%}",
                "plan ms": f"{plan_ms:.0f}",
                "rows": len(result.relation),
            }
        )
        raw.append((site_pages, result.pages, planned))
    record(
        "SCALE",
        "Example 7.2 query as the site grows (selectivity fixed at one "
        "department)",
        table(
            rows,
            ["site pages", "best cost", "measured", "fraction", "plan ms",
             "rows"],
        ),
        data=rows,
        queries={"ex72": SQL},
    )
    return raw


class TestShape:
    def test_cost_grows_sublinearly_with_site(self, scaling):
        """The site grows ~14×, the selective query's pages grow ~3×: cost
        tracks the selected slice (one department), not the site."""
        first_site, first_pages, _ = scaling[0]
        last_site, last_pages, _ = scaling[-1]
        site_growth = last_site / first_site
        pages_growth = last_pages / first_pages
        assert pages_growth < site_growth / 3

    def test_selected_fraction_never_increases(self, scaling):
        fractions = [pages / site for site, pages, _ in scaling]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_plan_shape_stable_across_sizes(self, scaling):
        for _, _, planned in scaling:
            text = planned.best.render()
            assert "DeptListPage" in text
            assert "SessionListPage" not in text


def test_bench_query_on_large_site(benchmark):
    env = university(
        UniversityConfig(n_depts=8, n_profs=80, n_courses=200)
    )
    query = parse_query(SQL, env.view)
    plan = env.planner.plan_query(query).best.expr
    result = benchmark(lambda: env.execute(plan))
    assert len(result.relation) > 0
