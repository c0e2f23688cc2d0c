"""Tests for extraction specs and page wrappers."""

import pytest

from repro.adm.page_scheme import Attribute, PageScheme
from repro.adm.webtypes import IMAGE, TEXT, link, list_of
from repro.errors import ExtractionError, WrapperError
from repro.sitegen.html_writer import render_page
from repro.wrapper.conventions import spec_for_page_scheme
from repro.wrapper.spec import Selector
from repro.wrapper.spec import AtomRule, ExtractionSpec, ListRule
from repro.wrapper.wrapper import PageWrapper, WrapperRegistry

from tests.wrapper_reference import extract, parse_html


@pytest.fixture()
def dept_scheme():
    return PageScheme(
        "DeptPage",
        [
            Attribute("DName", TEXT),
            Attribute("Logo", IMAGE),
            Attribute(
                "ProfList",
                list_of(("PName", TEXT), ("ToProf", link("ProfPage"))),
            ),
        ],
    )


@pytest.fixture()
def dept_tuple():
    return {
        "DName": "Computer Science",
        "Logo": "http://x/logo.gif",
        "ProfList": [
            {"PName": "Ada", "ToProf": "http://x/prof/ada.html"},
            {"PName": "Alan", "ToProf": "http://x/prof/alan.html"},
        ],
    }


@pytest.fixture()
def dept_html(dept_scheme, dept_tuple):
    return render_page(dept_scheme, dept_tuple, "CS")


class TestAtomRule:
    def test_text_extraction(self, dept_html):
        root = parse_html(dept_html)
        rule = AtomRule("DName", Selector.parse(".attr[data-attr=DName]"))
        assert extract(rule, root) == "Computer Science"

    def test_src_extraction(self, dept_html):
        root = parse_html(dept_html)
        rule = AtomRule(
            "Logo", Selector.parse("img[data-attr=Logo]"), source="src"
        )
        assert extract(rule, root) == "http://x/logo.gif"

    def test_missing_element_raises(self, dept_html):
        root = parse_html(dept_html)
        rule = AtomRule("X", Selector.parse(".attr[data-attr=Nope]"))
        with pytest.raises(ExtractionError):
            extract(rule, root)

    def test_optional_missing_yields_none(self, dept_html):
        root = parse_html(dept_html)
        rule = AtomRule(
            "X", Selector.parse(".attr[data-attr=Nope]"), optional=True
        )
        assert extract(rule, root) is None

    def test_missing_html_attribute_raises(self):
        root = parse_html('<a class="attr" data-attr="L">x</a>')
        rule = AtomRule("L", Selector.parse("a[data-attr=L]"), source="href")
        with pytest.raises(ExtractionError):
            extract(rule, root)


class TestListRule:
    def test_extracts_items(self, dept_html):
        root = parse_html(dept_html)
        rule = ListRule(
            "ProfList",
            container=Selector.parse("ul[data-attr=ProfList]"),
            item=Selector.parse("li.item"),
            rules=(
                AtomRule("PName", Selector.parse(".attr[data-attr=PName]")),
                AtomRule(
                    "ToProf",
                    Selector.parse("a[data-attr=ToProf]"),
                    source="href",
                ),
            ),
        )
        rows = extract(rule, root)
        assert [r["PName"] for r in rows] == ["Ada", "Alan"]

    def test_missing_container_raises(self):
        root = parse_html("<div></div>")
        rule = ListRule(
            "L",
            container=Selector.parse("ul[data-attr=L]"),
            item=Selector.parse("li"),
        )
        with pytest.raises(ExtractionError):
            extract(rule, root)


class TestPageWrapper:
    def test_wrap_round_trip(self, dept_scheme, dept_tuple, dept_html):
        wrapper = PageWrapper(dept_scheme, spec_for_page_scheme(dept_scheme))
        row = wrapper.wrap("http://x/dept/cs.html", dept_html)
        assert row == {"URL": "http://x/dept/cs.html", **dept_tuple}

    def test_relative_links_resolved(self, dept_scheme):
        tup = {
            "DName": "CS",
            "Logo": "logo.gif",
            "ProfList": [{"PName": "Ada", "ToProf": "../prof/ada.html"}],
        }
        html = render_page(dept_scheme, tup)
        wrapper = PageWrapper(dept_scheme, spec_for_page_scheme(dept_scheme))
        row = wrapper.wrap("http://x/dept/cs.html", html)
        assert row["ProfList"][0]["ToProf"] == "http://x/prof/ada.html"

    def test_spec_scheme_mismatch_rejected(self, dept_scheme):
        spec = ExtractionSpec("Other", ())
        with pytest.raises(WrapperError):
            PageWrapper(dept_scheme, spec)

    def test_spec_missing_attribute_rejected(self, dept_scheme, dept_html):
        spec = ExtractionSpec("DeptPage", ())
        wrapper = PageWrapper(dept_scheme, spec)
        with pytest.raises(WrapperError):
            wrapper.wrap("http://x/d.html", dept_html)

    def test_null_non_optional_link_rejected(self):
        ps = PageScheme("P", [Attribute("ToQ", link("Q"))])
        html = "<html><body></body></html>"
        from repro.wrapper.spec import AtomRule as AR

        spec = ExtractionSpec(
            "P",
            (AR("ToQ", Selector.parse("a[data-attr=ToQ]"),
                source="href", optional=True),),
        )
        wrapper = PageWrapper(ps, spec)
        with pytest.raises(WrapperError):
            wrapper.wrap("http://x/p.html", html)

    def test_null_optional_link_ok(self):
        ps = PageScheme("P", [Attribute("ToQ", link("Q", optional=True))])
        spec = ExtractionSpec(
            "P",
            (AtomRule("ToQ", Selector.parse("a[data-attr=ToQ]"),
                      source="href", optional=True),),
        )
        wrapper = PageWrapper(ps, spec)
        row = wrapper.wrap("http://x/p.html", "<html></html>")
        assert row["ToQ"] is None


class TestRegistry:
    def test_register_and_wrap(self, dept_scheme, dept_tuple, dept_html):
        registry = WrapperRegistry()
        registry.register(
            PageWrapper(dept_scheme, spec_for_page_scheme(dept_scheme))
        )
        assert "DeptPage" in registry
        assert len(registry) == 1
        row = registry.wrap("DeptPage", "http://x/d.html", dept_html)
        assert row["DName"] == "Computer Science"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(WrapperError):
            WrapperRegistry().wrapper("Nope")


class TestNestedShadowing:
    def test_inner_list_does_not_shadow_outer_atoms(self):
        """An attribute name reused inside a nested list must not leak out."""
        ps = PageScheme(
            "EditionPage",
            [
                Attribute("Title", TEXT),  # page-level Title
                Attribute(
                    "PaperList",
                    list_of(
                        ("Title", TEXT),  # per-paper Title
                        ("AuthorList", list_of(("AName", TEXT))),
                    ),
                ),
            ],
        )
        tup = {
            "Title": "Proceedings",
            "PaperList": [
                {
                    "Title": "Paper One",
                    "AuthorList": [{"AName": "Ada"}, {"AName": "Alan"}],
                },
                {"Title": "Paper Two", "AuthorList": [{"AName": "Grace"}]},
            ],
        }
        html = render_page(ps, tup)
        wrapper = PageWrapper(ps, spec_for_page_scheme(ps))
        row = wrapper.wrap("http://x/e.html", html)
        assert row["Title"] == "Proceedings"
        assert row["PaperList"][0]["Title"] == "Paper One"
        assert row["PaperList"][1]["AuthorList"] == [{"AName": "Grace"}]


def _wrap(html, *attrs, rules=None):
    """Wrap ``html`` as a page of text attributes ``attrs`` (conventional
    spec unless ``rules`` are given); returns the tuple without its URL."""
    ps = PageScheme("P", [Attribute(a, TEXT) for a in attrs])
    spec = ExtractionSpec("P", rules) if rules else spec_for_page_scheme(ps)
    row = PageWrapper(ps, spec).wrap("http://x/p.html", html)
    del row["URL"]
    return row


def _attr(name, body):
    return f'<span class="attr" data-attr="{name}">{body}</span>'


class TestUserVisibleMarkup:
    """What ``test_wrapper_dom.py`` pins on the reference evaluator, seen
    through ``PageWrapper.wrap`` (the one-pass extractor)."""

    def test_text_normalises_whitespace(self):
        assert _wrap(_attr("A", " Computer \n  Science "), "A") == {
            "A": "Computer Science"
        }

    def test_entities_decoded_in_text_and_attributes(self):
        ps = PageScheme("P", [Attribute("A", TEXT), Attribute("To", link("Q"))])
        html = _attr("A", "Fish &amp; Chips &lt;3") + (
            '<a class="attr" data-attr="To" href="q.html?a=1&amp;b=2">q</a>'
        )
        row = PageWrapper(ps, spec_for_page_scheme(ps)).wrap("http://x/p.html", html)
        assert row["A"] == "Fish & Chips <3"
        assert row["To"] == "http://x/q.html?a=1&b=2"

    def test_comments_are_neither_text_nor_markup(self):
        html = "<!-- " + _attr("A", "fake") + " -->" + _attr("A", "<!-- x -->shown")
        assert _wrap(html, "A") == {"A": "shown"}

    def test_script_content_is_not_markup(self):
        html = f"<script>var s = '{_attr('A', 'fake')}';</script>" + _attr("A", "real")
        assert _wrap(html, "A") == {"A": "real"}

    def test_void_elements_do_not_swallow_siblings(self):
        html = "<p><img src='x.gif'><br>" + _attr("A", "one<br>two") + "</p>"
        assert _wrap(html, "A") == {"A": "one two"}

    def test_unbalanced_markup_tolerated(self):
        html = "<div><p>one<p>two</div></b></span>" + _attr("A", "out")
        assert _wrap(html, "A") == {"A": "out"}

    def test_valueless_and_duplicate_attributes(self):
        html = '<input disabled><span class="x" class="attr" data-attr="A">v</span>'
        assert _wrap(html, "A") == {"A": "v"}

    def test_valueless_href_is_the_empty_link(self):
        ps = PageScheme("P", [Attribute("To", link("Q"))])
        wrapper = PageWrapper(ps, spec_for_page_scheme(ps))
        html = '<a class="attr" data-attr="To" href>q</a>'
        assert wrapper.wrap("http://x/p.html", html)["To"] == "http://x/p.html"

    def test_own_text_excludes_descendants(self):
        rules = (
            AtomRule("Own", Selector.parse("div"), source="own-text"),
            AtomRule("All", Selector.parse("div")),
        )
        assert _wrap("<div>top <span>inner</span> end</div>", "Own", "All",
                     rules=rules) == {"Own": "top end", "All": "top inner end"}

    def test_first_match_decides_even_without_the_attribute(self):
        ps = PageScheme("P", [Attribute("To", link("Q", optional=True))])
        html = '<a class="attr" data-attr="To">x</a>' + (
            '<a class="attr" data-attr="To" href="late.html">y</a>'
        )
        wrapper = PageWrapper(ps, spec_for_page_scheme(ps))
        assert wrapper.wrap("http://x/p.html", html)["To"] is None

    def test_boundary_scopes_the_search(self):
        """A list container is found, its content is not searched — except
        by the rules of its own items."""
        ps = PageScheme(
            "P", [Attribute("L", list_of(("A", TEXT))), Attribute("A", TEXT)]
        )
        html = (
            '<ul class="attr-list" data-attr="L"><li class="item">'
            + _attr("A", "hidden from the page")
            + "</li></ul>"
            + _attr("A", "visible")
        )
        row = PageWrapper(ps, spec_for_page_scheme(ps)).wrap("http://x/p.html", html)
        assert row["A"] == "visible"
        assert row["L"] == [{"A": "hidden from the page"}]

    def test_error_is_the_first_failing_rule_in_rule_order(self):
        ps = PageScheme(
            "P", [Attribute("L", list_of(("A", TEXT))), Attribute("B", TEXT)]
        )
        html = '<ul class="attr-list" data-attr="L"><li class="item"></li></ul>'
        with pytest.raises(ExtractionError) as err:
            PageWrapper(ps, spec_for_page_scheme(ps)).wrap("http://x/p.html", html)
        assert str(err.value) == (
            "P: attribute 'A': no element matches .attr[data-attr=A]"
        )


class TestHostilePages:
    """Pages no tree walk survives: depth is bounded by memory, not by the
    interpreter's recursion limit, and a run of stray end tags costs O(1)
    each."""

    DEPTH = 5000

    def test_deeply_nested_page_wraps(self):
        html = "<div>" * self.DEPTH + _attr("A", "x") + "</div>" * self.DEPTH
        assert _wrap(html, "A") == {"A": "x"}

    def test_stray_end_tags_are_ignored(self):
        html = (
            "<div>" * self.DEPTH
            + _attr("A", "x")
            + "</span>" * self.DEPTH
            + _attr("B", "y")
            + "</div>" * self.DEPTH
        )
        assert _wrap(html, "A", "B") == {"A": "x", "B": "y"}

    def test_deep_text_is_collected_without_recursion(self):
        html = _attr("A", "<b>" * self.DEPTH + "deep" + "</b>" * self.DEPTH + " tail")
        assert _wrap(html, "A") == {"A": "deep tail"}

    #: n ↦ a page on which a tokenizer that ever looks at a character twice
    #: is quadratic: html.parser took 39 s, 41 s, 4 s and 0.3 s on the first
    #: four at n = 20 000 and raised AssertionError on ``<![``
    REPEATS = {
        "open tags": lambda n: "<a " * n,
        "open quotes": lambda n: '<a x="' * n,
        "open comments": lambda n: "<!--" * n,
        "open end tags": lambda n: "</a " * n,
        "stray <": lambda n: "< " * n,
        "unclosed script": lambda n: "<script>" + "<b>x</b> " * n,
        "open marked sections": lambda n: "<![" * n,
        "open references": lambda n: "&amp" * n,
        "one endless tag": lambda n: "<a" + ' x="y" /' * n + ">",
        "dashes in a comment": lambda n: "<!--" + "- -- " * n + "-->",
        "a leaf's text to the end": lambda n: "<a>" + "x" * n,
        "leaves of another end name": lambda n: "<a>x</b>" * n,
        "leaves of another case": lambda n: "<A>x</a>" * n,
        "a leaf past the bound": lambda n: "<a" + " x=y" * n + ">t</a>",
    }

    @pytest.mark.parametrize("shape", REPEATS)
    def test_hostile_repeats_wrap_in_linear_time(self, shape):
        import time

        # an optional rule nothing matches keeps a slot undecided, so the
        # scan cannot stop early and reads the whole hostile tail
        rules = (
            AtomRule("A", Selector.parse(".attr[data-attr=A]")),
            AtomRule("Never", Selector.parse("span.never"), optional=True),
        )

        # CPU time of this thread, best of 7 with the two sizes interleaved:
        # a busy box slows both sizes alike instead of one of them
        pages = {
            n: _attr("A", "x") + self.REPEATS[shape](n) for n in (10_000, 40_000)
        }
        best = dict.fromkeys(pages, float("inf"))
        for _ in range(7):
            for n, html in pages.items():
                started = time.thread_time()
                assert _wrap(html, "A", rules=rules) == {"A": "x"}
                best[n] = min(best[n], time.thread_time() - started)
        once, four_times = best[10_000], best[40_000]
        assert once < 1.0
        # four times the page: linear reads ~4x the time, quadratic ~16x
        assert four_times <= 8 * once


class TestSharedWrapperAcrossThreads:
    def test_four_threads_interleaving_pages_of_different_shapes(self, dept_scheme):
        """One PageWrapper serves every server worker: the compiled program
        is shared, the run state is per call."""
        import sys
        import threading

        wrapper = PageWrapper(dept_scheme, spec_for_page_scheme(dept_scheme))
        pages = []
        for n in range(8):
            row = {
                "DName": f"Dept {n}",
                "Logo": f"http://x/{n}.gif",
                "ProfList": [
                    {"PName": f"P{n}-{i}", "ToProf": f"http://x/p/{n}-{i}.html"}
                    for i in range(n)
                ],
            }
            html = render_page(dept_scheme, row, f"D{n}")
            pages.append((f"http://x/d{n}.html", "<div>" * (n * 40) + html))
        serial = [wrapper.wrap(url, html) for url, html in pages]
        assert [len(r["ProfList"]) for r in serial] == list(range(8))

        results: dict[int, list] = {}

        def work(worker: int) -> None:
            out = []
            for i in range(200):
                index = (i * (worker + 1) + worker) % len(pages)
                out.append((index, wrapper.wrap(*pages[index])))
            results[worker] = out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for out in results.values():
            assert len(out) == 200
            assert all(row == serial[index] for index, row in out)
