"""Tests for the error hierarchy, link walking, HTML writer edge cases, and
package metadata."""

import pytest

import repro
from repro import errors
from repro.adm.links import iter_outlinks, outlink_set
from repro.adm.page_scheme import Attribute, PageScheme
from repro.adm.webtypes import TEXT, link, list_of
from repro.errors import WrapperError
from repro.sitegen.html_writer import render_page


class TestErrorHierarchy:
    ALL = [
        errors.SchemeError,
        errors.ConstraintError,
        errors.SchemaError,
        errors.PNFError,
        errors.AlgebraError,
        errors.NotComputableError,
        errors.PredicateError,
        errors.WrapperError,
        errors.ExtractionError,
        errors.WebError,
        errors.ResourceNotFound,
        errors.StatisticsError,
        errors.OptimizerError,
        errors.QueryError,
        errors.ParseError,
        errors.MaterializationError,
    ]

    def test_all_derive_from_repro_error(self):
        for exc in self.ALL:
            assert issubclass(exc, errors.ReproError)

    def test_specializations(self):
        assert issubclass(errors.ConstraintError, errors.SchemeError)
        assert issubclass(errors.PNFError, errors.SchemaError)
        assert issubclass(errors.NotComputableError, errors.AlgebraError)
        assert issubclass(errors.ExtractionError, errors.WrapperError)
        assert issubclass(errors.ResourceNotFound, errors.WebError)
        assert issubclass(errors.ParseError, errors.QueryError)

    def test_resource_not_found_carries_url(self):
        exc = errors.ResourceNotFound("http://x/a")
        assert exc.url == "http://x/a"
        assert "http://x/a" in str(exc)


class TestOutlinks:
    def test_iter_outlinks_nested(self, uni_env):
        site = uni_env.site
        prof = site.profs[0]
        plain = {"URL": prof.url, **site.prof_tuple(prof)}
        links = list(iter_outlinks(site.scheme, "ProfPage", plain))
        targets = {t for t, _ in links}
        assert targets == {"DeptPage", "CoursePage"}
        assert len(links) == 1 + len(prof.courses)

    def test_outlink_set_shape(self, uni_env):
        site = uni_env.site
        prof = site.profs[0]
        plain = {"URL": prof.url, **site.prof_tuple(prof)}
        pairs = outlink_set(site.scheme, "ProfPage", plain)
        assert (prof.dept.url, "DeptPage") in pairs
        # in tuple order, whatever the string hash seed
        links = iter_outlinks(site.scheme, "ProfPage", plain)
        assert list(pairs) == list(dict.fromkeys((u, t) for t, u in links))

    def test_null_links_skipped(self):
        from repro.adm.builder import SchemeBuilder

        b = SchemeBuilder()
        b.page("T").attr("X", TEXT)
        b.page("A").attr("L", link("T", optional=True)).entry_point(
            "http://x/a"
        )
        scheme = b.build()
        assert list(iter_outlinks(scheme, "A", {"L": None})) == []


class TestHtmlWriter:
    def test_missing_attribute_rejected(self):
        ps = PageScheme("P", [Attribute("A", TEXT)])
        with pytest.raises(WrapperError):
            render_page(ps, {})

    def test_none_optional_link_emits_nothing(self):
        ps = PageScheme("P", [Attribute("L", link("Q", optional=True))])
        html = render_page(ps, {"L": None})
        assert 'data-attr="L"' not in html

    def test_html_escaping(self):
        ps = PageScheme("P", [Attribute("A", TEXT)])
        html = render_page(ps, {"A": "<b>&amp;</b>"}, title="T & T")
        assert "<b>" not in html.split("<body>")[1].replace("<body>", "")
        # the raw value must round-trip through the wrapper instead
        from repro.wrapper.conventions import spec_for_page_scheme
        from repro.wrapper.wrapper import PageWrapper

        wrapper = PageWrapper(ps, spec_for_page_scheme(ps))
        assert wrapper.wrap("http://x/p.html", html)["A"] == "<b>&amp;</b>"

    def test_empty_list_renders_empty_container(self):
        ps = PageScheme(
            "P", [Attribute("L", list_of(("X", TEXT)))]
        )
        html = render_page(ps, {"L": []})
        assert 'data-attr="L"' in html


class TestPackage:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_public_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestSchemeDiagram:
    def test_dot_output_well_formed(self, uni_env):
        from repro.adm.diagram import scheme_to_dot

        dot = scheme_to_dot(uni_env.scheme)
        assert dot.startswith('digraph "university" {')
        assert dot.rstrip().endswith("}")
        # every page-scheme gets a node, every link an edge
        for name in uni_env.scheme.page_schemes:
            assert f'"{name}"' in dot
        assert '"ProfPage" -> "DeptPage"' in dot
        assert "peripheries=2" in dot  # entry points doubled
        assert "style=dashed" in dot   # inclusion constraints

    def test_dot_escapes_special_characters(self):
        from repro.adm.builder import SchemeBuilder
        from repro.adm.diagram import scheme_to_dot
        from repro.adm.webtypes import TEXT

        b = SchemeBuilder('odd"name')
        b.page("A").attr("X", TEXT).entry_point("http://x/a")
        dot = scheme_to_dot(b.build())
        assert 'digraph "odd\\"name"' in dot

    def test_balanced_braces(self, uni_env):
        from repro.adm.diagram import scheme_to_dot

        dot = scheme_to_dot(uni_env.scheme)
        # ignoring escaped braces, the figure is balanced
        cleaned = dot.replace("\\{", "").replace("\\}", "")
        assert cleaned.count("{") == cleaned.count("}")
