"""Hand-written extraction specs over irregular, marker-free HTML.

The bundled generators emit conventional markup, but the spec machinery is
what the paper actually assumes: wrappers for arbitrary 1990s HTML.  These
tests wrap a "legacy" page (tables, definition lists, no data-attr markers)
with a hand-written spec, and plug the result into the normal pipeline.
"""

import pytest

from repro.adm.page_scheme import Attribute, PageScheme
from repro.adm.webtypes import TEXT, link, list_of
from repro.errors import ExtractionError
from repro.wrapper.spec import Selector
from repro.wrapper.spec import AtomRule, ExtractionSpec, ListRule
from repro.wrapper.wrapper import PageWrapper

LEGACY_HTML = """
<html><head><title>Dept. of Computer Science</title></head>
<body bgcolor="#ffffff">
<center><h1><font color="navy">Dept. of Computer Science</font></h1></center>
<table border="0">
  <tr><td><b>Name:</b></td><td class="val-name">Computer Science</td></tr>
  <tr><td><b>Where:</b></td><td class="val-addr">1 Main Street</td></tr>
</table>
<hr>
<h3>Our Faculty</h3>
<ul class="faculty">
  <li><a href="/prof/ada.html">Prof. Ada Lovelace</a> (tenured)</li>
  <li><a href="/prof/alan.html">Prof. Alan Turing</a></li>
</ul>
<address>Webmaster: webmaster@cs.example</address>
</body></html>
"""


@pytest.fixture()
def dept_scheme():
    return PageScheme(
        "DeptPage",
        [
            Attribute("DName", TEXT),
            Attribute("Address", TEXT),
            Attribute(
                "ProfList",
                list_of(("PName", TEXT), ("ToProf", link("ProfPage"))),
            ),
        ],
    )


@pytest.fixture()
def legacy_spec():
    return ExtractionSpec(
        page_scheme="DeptPage",
        rules=(
            AtomRule("DName", Selector.parse("td.val-name")),
            AtomRule("Address", Selector.parse("td.val-addr")),
            ListRule(
                "ProfList",
                container=Selector.parse("ul.faculty"),
                item=Selector.parse("li"),
                rules=(
                    AtomRule("PName", Selector.parse("a")),
                    AtomRule("ToProf", Selector.parse("a"), source="href"),
                ),
            ),
        ),
    )


class TestLegacyWrapping:
    def test_extracts_atoms_from_table_cells(self, dept_scheme, legacy_spec):
        wrapper = PageWrapper(dept_scheme, legacy_spec)
        row = wrapper.wrap("http://cs.example/dept.html", LEGACY_HTML)
        assert row["DName"] == "Computer Science"
        assert row["Address"] == "1 Main Street"

    def test_extracts_list_from_ul(self, dept_scheme, legacy_spec):
        wrapper = PageWrapper(dept_scheme, legacy_spec)
        row = wrapper.wrap("http://cs.example/dept.html", LEGACY_HTML)
        assert [i["PName"] for i in row["ProfList"]] == [
            "Prof. Ada Lovelace",
            "Prof. Alan Turing",
        ]

    def test_relative_hrefs_resolved_against_page(self, dept_scheme, legacy_spec):
        wrapper = PageWrapper(dept_scheme, legacy_spec)
        row = wrapper.wrap("http://cs.example/dept.html", LEGACY_HTML)
        assert row["ProfList"][0]["ToProf"] == "http://cs.example/prof/ada.html"

    def test_spec_failure_is_loud(self, dept_scheme):
        broken = ExtractionSpec(
            "DeptPage",
            rules=(AtomRule("DName", Selector.parse("td.no-such-class")),),
        )
        wrapper = PageWrapper(dept_scheme, broken)
        with pytest.raises(ExtractionError):
            wrapper.wrap("http://cs.example/dept.html", LEGACY_HTML)

    def test_legacy_page_feeds_normal_pipeline(self, dept_scheme, legacy_spec):
        """A site mixing conventional and legacy pages: register the
        hand-written wrapper alongside the derived ones and navigate."""
        from repro.adm import SchemeBuilder
        from repro.engine.remote import RemoteExecutor
        from repro.algebra.ast import EntryPointScan
        from repro.sitegen.html_writer import render_page
        from repro.web import SimulatedWebServer, WebClient
        from repro.wrapper.conventions import spec_for_page_scheme
        from repro.wrapper.wrapper import WrapperRegistry

        b = SchemeBuilder("mixed")
        b.page("DeptPage").attr("DName", TEXT).attr("Address", TEXT).attr(
            "ProfList",
            list_of(("PName", TEXT), ("ToProf", link("ProfPage"))),
        ).entry_point("http://cs.example/dept.html")
        b.page("ProfPage").attr("PName", TEXT).attr("Office", TEXT)
        scheme = b.build()

        server = SimulatedWebServer()
        server.publish(
            "http://cs.example/dept.html", LEGACY_HTML, page_scheme="DeptPage"
        )
        for slug, name in (("ada", "Prof. Ada Lovelace"),
                           ("alan", "Prof. Alan Turing")):
            server.publish(
                f"http://cs.example/prof/{slug}.html",
                render_page(
                    scheme.page_scheme("ProfPage"),
                    {"PName": name, "Office": f"Room {slug.upper()}"},
                ),
                page_scheme="ProfPage",
            )

        registry = WrapperRegistry()
        registry.register(
            PageWrapper(scheme.page_scheme("DeptPage"), legacy_spec)
        )
        registry.register(
            PageWrapper(
                scheme.page_scheme("ProfPage"),
                spec_for_page_scheme(scheme.page_scheme("ProfPage")),
            )
        )

        executor = RemoteExecutor(scheme, WebClient(server), registry)
        expr = (
            EntryPointScan("DeptPage")
            .unnest("DeptPage.ProfList")
            .follow("DeptPage.ProfList.ToProf")
            .project(("PName", "ProfPage.PName"), ("Office", "ProfPage.Office"))
        )
        result = executor.execute(expr)
        assert {(r["PName"], r["Office"]) for r in result.relation} == {
            ("Prof. Ada Lovelace", "Room ADA"),
            ("Prof. Alan Turing", "Room ALAN"),
        }
        assert result.pages == 3
