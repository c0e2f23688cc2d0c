"""Read sets: the wrapper extracts only what a plan reads.

A compiled plan names, per page-scheme, the attribute paths its operators
read (``CompiledPlan.reads``); a session wraps a live page with only those
(``ReadSet``), and the extractor stops scanning once nothing left on the
page can change the tuple.  The laws pinned here:

(a) a restricted wrap equals the full wrap restricted to the read set, on
    every page of the generated sites, and raises iff the full wrap fails
    on a read rule, with that rule's message — so whether a query fails on
    a page whose unread attribute is broken depends on whether the page
    wraps restricted or in full;
(b) early exit changes nothing: the full program gives the same tuple
    with it on and off;
(c) on hostile markup, the restricted extractor equals the reference DOM
    evaluator over the spec cut down to the read rules;
(d) an unnested list keeps its length when none of its fields is read;
(e) retained tuples — cross-query cache entries, the navigator's hand-off
    — are full, so later queries reading other attributes answer right;
(f) every wrap still goes through ``WrapperRegistry.wrap(target, url,
    html)``, the seam a timing or counting registry overrides.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import university
from repro.adm.webtypes import ListType
from repro.algebra.ast import EntryPointScan, Project, Unnest
from repro.engine.compile import compile_plan
from repro.engine.remote import RemoteExecutor
from repro.errors import ExtractionError, WrapperError
from repro.obs.trace import RecordingTracer
from repro.options import QueryOptions, QueryRequest
from repro.server import QueryServer
from repro.sitegen import SiteMutator, build_university_site
from repro.sitegen.bibliography import build_bibliography_site
from repro.sitegen.fuzz import FuzzConfig, build_fuzzed_site
from repro.sitegen.movies import build_movie_site
from repro.wrapper import extractor
from repro.wrapper.conventions import registry_for_scheme
from repro.wrapper.extractor import compile_spec, extract
from repro.wrapper.spec import ExtractionSpec, ListRule
from repro.wrapper.wrapper import ReadSet, WrapperRegistry

from tests import wrapper_reference as reference
from tests.conftest import SMALL_BIB_CONFIG, SMALL_CONFIG
from tests.test_wrapper_extractor_property import PAGES, SPECS

# --------------------------------------------------------------------- #
# read sets
# --------------------------------------------------------------------- #


def closed(paths) -> frozenset:
    """``paths`` with every prefix: a field is read through its list."""
    return frozenset(p[:i] for p in paths for i in range(1, len(p) + 1))


def scheme_paths(attrs, path=()) -> list:
    """Every attribute path of ``(name, web type)`` pairs."""
    paths = []
    for name, wtype in attrs:
        paths.append(path + (name,))
        if isinstance(wtype, ListType):
            paths += scheme_paths(wtype.fields, path + (name,))
    return paths


def rule_paths(rules, path=()) -> list:
    paths = []
    for rule in rules:
        paths.append(path + (rule.attr,))
        if isinstance(rule, ListRule):
            paths += rule_paths(rule.rules, path + (rule.attr,))
    return paths


def restricted(row: dict, reads: frozenset, path=()) -> dict:
    """A wrapped tuple cut down to ``reads`` (the page's URL stays)."""
    kept = {}
    for name, value in row.items():
        here = path + (name,)
        if here in reads:
            if isinstance(value, list):
                value = [restricted(item, reads, here) for item in value]
            kept[name] = value
        elif not path and name == "URL":
            kept[name] = value
    return kept


def restricted_spec(spec: ExtractionSpec, reads: frozenset) -> ExtractionSpec:
    """The spec with the unread rules left out, built here independently of
    the extractor's own restriction."""

    def cut(rules, path):
        kept = []
        for rule in rules:
            here = path + (rule.attr,)
            if here in reads:
                if isinstance(rule, ListRule):
                    inner = cut(rule.rules, here)
                    rule = ListRule(rule.attr, rule.container, rule.item, inner)
                kept.append(rule)
        return tuple(kept)

    return ExtractionSpec(spec.page_scheme, cut(spec.rules, ()))


def outcome(run):
    try:
        return run()
    except (ExtractionError, WrapperError) as exc:
        return f"{type(exc).__name__}: {exc}"


# --------------------------------------------------------------------- #
# (a) the law over every page of the generated sites
# --------------------------------------------------------------------- #


def site_pages(site):
    server = site.server
    return [server.resource(url) for url in sorted(server.urls())]


def mutated_university():
    site = build_university_site(SMALL_CONFIG)
    mutator = SiteMutator(site)
    rng = random.Random(5)
    mutator.revise_courses(0.5, revision="rev <b>&amp;</b> 2")
    mutator.add_course(rng.choice(site.profs))
    mutator.remove_course(rng.choice(site.courses))
    mutator.add_prof(site.depts[0].name)
    return site


SITES = {
    "university": lambda: build_university_site(SMALL_CONFIG),
    "university mutated": mutated_university,
    "bibliography": lambda: build_bibliography_site(SMALL_BIB_CONFIG),
    "movies": build_movie_site,
    "fuzz 17": lambda: build_fuzzed_site(FuzzConfig(seed=17)),
    "fuzz 42": lambda: build_fuzzed_site(FuzzConfig(seed=42)),
}
_BUILT: dict = {}


def built(name):
    if name not in _BUILT:
        site = SITES[name]()
        _BUILT[name] = (site, registry_for_scheme(site.scheme), site_pages(site))
    return _BUILT[name]


def assert_law(registry, pages, reads_of) -> None:
    for resource in pages:
        name = resource.page_scheme
        reads = reads_of(name)
        full = registry.wrap(name, resource.url, resource.html)
        got = registry.wrap(ReadSet(name, reads), resource.url, resource.html)
        assert got == restricted(full, reads), (resource.url, sorted(reads))


@pytest.mark.parametrize("site", SITES)
def test_every_single_path_and_the_empty_read_set(site):
    """Each path alone (with its prefixes), nothing, and everything."""
    site_, registry, pages = built(site)
    for page_scheme in site_.scheme.page_schemes.values():
        attrs = [(a.name, a.wtype) for a in page_scheme.attributes]
        paths = scheme_paths(attrs)
        mine = [p for p in pages if p.page_scheme == page_scheme.name]
        for reads in [frozenset(), closed(paths), *(closed([p]) for p in paths)]:
            assert_law(registry, mine, lambda _, reads=reads: reads)


@pytest.mark.parametrize("site", SITES)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_drawn_read_sets(site, data):
    site_, registry, pages = built(site)
    drawn = {}
    for page_scheme in site_.scheme.page_schemes.values():
        paths = scheme_paths([(a.name, a.wtype) for a in page_scheme.attributes])
        drawn[page_scheme.name] = closed(
            data.draw(st.sets(st.sampled_from(paths)), label=page_scheme.name)
        )
    assert_law(registry, pages, drawn.__getitem__)


def test_a_field_path_reads_its_list_too():
    """A read set need not name a field's list: the wrapper adds it."""
    for name in SITES:
        site, registry, pages = built(name)
        for resource in pages:
            wrapper = registry.wrapper(resource.page_scheme)
            attrs = [(a.name, a.wtype) for a in wrapper.page_scheme.attributes]
            for path in scheme_paths(attrs):
                url, html = resource.url, resource.html
                alone = ReadSet(resource.page_scheme, frozenset({path}))
                whole = ReadSet(resource.page_scheme, closed([path]))
                got = outcome(lambda: registry.wrap(alone, url, html))
                assert got == outcome(lambda: registry.wrap(whole, url, html))


def broken_pages(site, registry):
    """(page, the attribute whose marker was renamed away) for every text or
    link attribute marker that occurs exactly once on its page."""
    for resource in site_pages(site):
        wrapper = registry.wrapper(resource.page_scheme)
        attrs = [(a.name, a.wtype) for a in wrapper.page_scheme.attributes]
        for path in scheme_paths(attrs):
            marker = f'data-attr="{path[-1]}"'
            if resource.html.count(marker) == 1:
                html = resource.html.replace(marker, 'data-attr="Gone"')
                yield resource, path, html


def test_a_restricted_wrap_fails_iff_the_full_wrap_fails_on_a_read_rule():
    site, registry, _ = built("university")
    checked = 0
    for resource, broken, html in broken_pages(site, registry):
        name, url = resource.page_scheme, resource.url
        attributes = registry.wrapper(name).page_scheme.attributes
        paths = scheme_paths([(a.name, a.wtype) for a in attributes])
        full = outcome(lambda: registry.wrap(name, url, html))
        assert isinstance(full, str), "the renamed marker breaks the full wrap"
        for path in paths:
            reads = closed([path])
            got = outcome(lambda: registry.wrap(ReadSet(name, reads), url, html))
            if broken in reads:
                assert got == full
            else:
                assert isinstance(got, dict)
        checked += 1
    assert checked > 10


def test_a_broken_unread_attribute_fails_only_where_the_page_wraps_in_full():
    """Example 7.2 reads a course's Type, not its Description: with that
    marker broken, a cache-off staged or pipelined query (restricted wrap)
    answers, while cross-query caching and adaptive (full wraps) raise."""
    env = university()
    site = env.site
    dept = site.depts[0].name
    course = next(
        c for c in site.courses if c.ctype == "Graduate" and c.prof.dept.name == dept
    )
    html = site.server.resource(course.url).html
    assert html.count('data-attr="Description"') == 1
    broken = html.replace('data-attr="Description"', 'data-attr="Gone"')
    site.server.publish(course.url, broken, "CoursePage")
    sql = EX72.format(dept=dept)
    want = {
        (c.prof.name, c.prof.email)
        for c in site.courses
        if c.ctype == "Graduate" and c.prof.dept.name == dept
    }
    for execution in ["staged", "pipelined"]:
        options = QueryOptions(cache="off", execution=execution)
        assert rows(env.query(sql, options=options).relation, "PName", "email") == want
    message = "CoursePage: attribute 'Description': no element matches"
    for options in [
        QueryOptions(cache="cross_query"),
        QueryOptions(cache="off", execution="adaptive"),
    ]:
        with pytest.raises(WrapperError, match=message):
            env.query(sql, options=options)


# --------------------------------------------------------------------- #
# (b) early exit
# --------------------------------------------------------------------- #


class ReadToTheEnd(extractor._Run):
    """A run with one slot that never decides: the loop cannot stop early."""

    def __init__(self, program):
        super().__init__(program)
        self._undecided += 1


class Reached:
    """The extractor's token pattern, noting how far into ``page`` the loop
    has read (the end of the last token it took)."""

    pattern = extractor._MARKUP

    def __init__(self, page):
        self.page, self.offset = page, 0

    def finditer(self, html, pos=0):
        for match in self.pattern.finditer(html, pos):
            if html is self.page:
                self.offset = match.end()
            yield match


def reached(program, html, monkeypatch):
    """``program``'s tuple of ``html`` and the page offset its loop read to."""
    tokens = Reached(html)
    with monkeypatch.context() as patched:
        patched.setattr(extractor, "_MARKUP", tokens)
        return outcome(lambda: extract(program, html)), tokens.offset


@pytest.mark.parametrize("site", SITES)
def test_early_exit_changes_no_tuple(site, monkeypatch):
    _, registry, pages = built(site)
    stopped = 0
    for resource in pages:
        html = resource.html
        program = compile_spec(registry.wrapper(resource.page_scheme).spec)
        early, offset = reached(program, html, monkeypatch)
        with monkeypatch.context() as patched:
            patched.setattr(extractor, "_Run", ReadToTheEnd)
            assert reached(program, html, monkeypatch) == (early, len(html))
        stopped += offset < len(html)
    # the law is not vacuous: the early runs stopped short on some pages
    assert stopped > 0


def test_early_exit_stops_the_scan(monkeypatch):
    """Example 7.2 reads only a course's Type, the fourth of its six
    attributes on the page: the loop stops at the token of Type's element,
    and the rest of the page is never read."""
    site, registry, pages = built("university")
    course = next(p for p in pages if p.page_scheme == "CoursePage")
    html = course.html
    program = compile_spec(registry.wrapper("CoursePage").spec, closed([("Type",)]))
    early, offset = reached(program, html, monkeypatch)
    type_at = html.index('data-attr="Type"')
    assert offset == html.index("</span>", type_at) + len("</span>")
    assert html.index('data-attr="PName"') > offset
    monkeypatch.setattr(extractor, "_Run", ReadToTheEnd)
    assert reached(program, html, monkeypatch) == (early, len(html))


# --------------------------------------------------------------------- #
# (c) hostile markup against the reference
# --------------------------------------------------------------------- #


@given(data=st.data(), spec=SPECS, html=PAGES)
@settings(max_examples=600, deadline=None)
def test_restricted_extractor_equals_reference_on_hostile_markup(data, spec, html):
    paths = rule_paths(spec.rules) or [("X",)]
    reads = closed(data.draw(st.sets(st.sampled_from(paths))))
    root = reference.parse_html(html)
    want = outcome(lambda: reference.extract(restricted_spec(spec, reads), root))
    assert outcome(lambda: extract(compile_spec(spec, reads), html)) == want


# --------------------------------------------------------------------- #
# (d) multiplicity
# --------------------------------------------------------------------- #


def test_a_list_with_no_read_field_keeps_its_length():
    site, registry, pages = built("university")
    dept = next(p for p in pages if p.page_scheme == "DeptPage")
    full = registry.wrap("DeptPage", dept.url, dept.html)
    reads = ReadSet("DeptPage", closed([("ProfList",)]))
    got = registry.wrap(reads, dept.url, dept.html)
    assert got["ProfList"] == [{}] * len(full["ProfList"]) != []


def test_an_unnest_whose_fields_nobody_reads_keeps_its_rows():
    env = university(SMALL_CONFIG)
    plan = Project(
        Unnest(EntryPointScan("ProfListPage"), "ProfListPage.ProfList"),
        (("URL", "ProfListPage.URL"),),
    )
    assert compile_plan(plan, env.scheme).reads == {
        "ProfListPage": frozenset({("ProfList",)})
    }

    def unnest_rows(cache):
        tracer = RecordingTracer()
        env.execute(plan, options=QueryOptions(cache=cache, tracer=tracer))
        (span,) = [s for s in tracer.spans() if s.name.startswith("unnest")]
        return span.attrs["tuples_out"]

    assert unnest_rows("off") == unnest_rows("cross_query") == len(env.site.profs)


# --------------------------------------------------------------------- #
# (e) what is retained stays full
# --------------------------------------------------------------------- #

EX72 = (
    "SELECT Professor.PName, email FROM Course, CourseInstructor, Professor, "
    "ProfDept WHERE Course.CName = CourseInstructor.CName "
    "AND CourseInstructor.PName = Professor.PName "
    "AND Professor.PName = ProfDept.PName "
    "AND ProfDept.DName = '{dept}' AND Type = 'Graduate'"
)
GRADUATE_SCAN = "SELECT CName, Description FROM Course WHERE Type = 'Graduate'"
PROFESSORS_OF = (
    "SELECT Professor.PName, Rank, email FROM Professor, ProfDept "
    "WHERE Professor.PName = ProfDept.PName AND ProfDept.DName = '{dept}'"
)


def rows(relation, *names) -> set:
    return {tuple(row[name] for name in names) for row in relation}


def test_retained_tuples_serve_queries_that_read_other_attributes():
    """Example 7.2 reads only a course's Type and a professor's name and
    email; the cache entries it leaves behind are then read for CName,
    Description and Rank — by a plain query, and through the server's
    navigator hand-off — and adaptive reads them against staged."""
    env = university()
    env.enable_cache(capacity=4096)
    site = env.site
    dept = site.depts[0].name
    ex72 = env.query(EX72.format(dept=dept))
    teachers = {
        (c.prof.name, c.prof.email)
        for c in site.courses
        if c.ctype == "Graduate" and c.prof.dept.name == dept
    }
    assert teachers and rows(ex72.relation, "PName", "email") == teachers
    scan = env.query(GRADUATE_SCAN)
    assert scan.revalidations > 0, "course pages Example 7.2 left in the cache"
    assert rows(scan.relation, "CName", "Description") == {
        (c.name, c.description) for c in site.courses if c.ctype == "Graduate"
    }
    server = QueryServer(env)
    try:
        request = QueryRequest(query=PROFESSORS_OF.format(dept=dept))
        served = server.submit(request).result()
    finally:
        server.close()
    assert rows(served.relation, "PName", "Rank", "email") == {
        (p.name, p.rank, p.email) for p in site.profs if p.dept.name == dept
    }
    staged = env.query(EX72.format(dept=dept))
    adaptive = env.query(
        EX72.format(dept=dept), options=QueryOptions(execution="adaptive")
    )
    assert staged.fingerprint() == adaptive.fingerprint() == ex72.fingerprint()


# --------------------------------------------------------------------- #
# (f) the three-argument seam
# --------------------------------------------------------------------- #


class SeamRegistry(WrapperRegistry):
    """Overrides exactly ``wrap(page_scheme, url, html)`` and delegates, as a
    timing or counting registry does."""

    def __init__(self, inner: WrapperRegistry):
        super().__init__()
        self.inner = inner
        self.calls: list = []

    def wrapper(self, page_scheme):
        return self.inner.wrapper(page_scheme)

    def wrap(self, page_scheme, url, html):
        plain = self.inner.wrap(page_scheme, url, html)
        self.calls.append((page_scheme, plain))
        return plain


def test_every_wrap_goes_through_the_three_argument_seam():
    env = university()
    env.registry = registry = SeamRegistry(env.registry)
    env.executor = RemoteExecutor(
        env.scheme,
        env.client,
        registry,
        planner=env.planner,
        cost_model=env.cost_model,
    )
    sql = EX72.format(dept=env.site.depts[0].name)
    result = env.query(sql, options=QueryOptions(cache="off"))
    assert len(registry.calls) == result.pages > 0
    for target, plain in registry.calls:
        assert isinstance(target, ReadSet)
        # the restricted program ran: only read attributes came back
        assert set(plain) == {"URL"} | {path[0] for path in target.paths}
    courses = [plain for target, plain in registry.calls if target[0] == "CoursePage"]
    assert courses and all(set(plain) == {"URL", "Type"} for plain in courses)
