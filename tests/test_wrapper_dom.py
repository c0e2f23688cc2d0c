"""Tests for selectors, and for the reference DOM evaluator
(``tests/wrapper_reference.py``) the one-pass extractor is compared against.

Every behaviour pinned here that a user can see (entities, comments, script
content, void elements, prune scoping) is also asserted through
``PageWrapper.wrap`` in ``test_wrapper_spec.py::TestUserVisibleMarkup``."""

import pytest

from repro.errors import WrapperError
from repro.wrapper.spec import Selector

from tests.wrapper_reference import matches, parse_html

SAMPLE = """
<!DOCTYPE html>
<html><head><title>T</title></head>
<body>
  <div class="page main" data-scheme="DeptPage">
    <h1>Dept of CS</h1>
    <span class="attr" data-attr="DName">Computer   Science</span>
    <img class="attr" data-attr="Logo" src="logo.gif">
    <ul class="attr-list" data-attr="ProfList">
      <li class="item"><span class="attr" data-attr="PName">Ada</span></li>
      <li class="item"><span class="attr" data-attr="PName">Alan</span></li>
    </ul>
  </div>
</body></html>
"""


class TestParsing:
    def test_structure(self):
        root = parse_html(SAMPLE)
        div = root.find(Selector.parse("div.page"))
        assert div is not None
        assert div.attrs["data-scheme"] == "DeptPage"

    def test_text_normalises_whitespace(self):
        root = parse_html(SAMPLE)
        span = root.find(Selector.parse("span[data-attr=DName]"))
        assert span.text() == "Computer Science"

    def test_own_text_excludes_descendants(self):
        root = parse_html("<div>top <span>inner</span></div>")
        div = root.find(Selector.parse("div"))
        assert div.own_text() == "top"
        assert div.text() == "top inner"

    def test_void_elements_do_not_swallow_siblings(self):
        root = parse_html("<p><img src='x.gif'><span>after</span></p>")
        assert root.find(Selector.parse("span")).text() == "after"

    def test_unbalanced_markup_tolerated(self):
        root = parse_html("<div><p>one<p>two</div><span>out</span>")
        assert root.find(Selector.parse("span")).text() == "out"

    def test_entity_decoding(self):
        root = parse_html("<span>Fish &amp; Chips</span>")
        assert root.find(Selector.parse("span")).text() == "Fish & Chips"

    def test_classes(self):
        root = parse_html(SAMPLE)
        div = root.find(Selector.parse("div"))
        assert div.classes == {"page", "main"}


class TestSelectors:
    def test_parse_full(self):
        sel = Selector.parse("span.attr[data-attr=DName]")
        assert sel.tag == "span"
        assert sel.classes == frozenset({"attr"})
        assert sel.attr_equals == ("data-attr", "DName")

    def test_parse_class_only(self):
        sel = Selector.parse(".attr-list")
        assert sel.tag is None
        assert sel.classes == frozenset({"attr-list"})

    def test_parse_tag_only(self):
        assert Selector.parse("li").tag == "li"

    def test_parse_rejects_empty(self):
        with pytest.raises(WrapperError):
            Selector.parse("")

    def test_parse_rejects_unterminated_bracket(self):
        with pytest.raises(WrapperError):
            Selector.parse("a[href")

    def test_parse_rejects_bracket_without_equals(self):
        with pytest.raises(WrapperError):
            Selector.parse("a[href]")

    def test_multi_class(self):
        sel = Selector.parse("div.page.main")
        root = parse_html(SAMPLE)
        assert matches(sel, root.find(Selector.parse("div")))

    def test_find_all(self):
        root = parse_html(SAMPLE)
        items = root.find_all(Selector.parse("li.item"))
        assert len(items) == 2

    def test_find_returns_first(self):
        root = parse_html(SAMPLE)
        li = root.find(Selector.parse("li.item"))
        assert "Ada" in li.text()

    def test_prune_stops_descent(self):
        html = """
        <div>
          <ul class="attr-list"><li><span class="inner">hidden</span></li></ul>
          <span class="inner">visible</span>
        </div>
        """
        root = parse_html(html)
        found = root.find_all(
            Selector.parse("span.inner"), prune=Selector.parse(".attr-list")
        )
        assert [n.text() for n in found] == ["visible"]

    def test_str_round_trip(self):
        sel = Selector.parse("span.attr[data-attr=X]")
        assert Selector.parse(str(sel)) == sel


class TestHostileMarkup:
    def test_comments_ignored(self):
        root = parse_html("<div><!-- hidden --><span>shown</span></div>")
        assert root.find(Selector.parse("div")).text() == "shown"

    def test_script_content_not_matched_by_class_selectors(self):
        html = """
        <script>var x = '<span class="attr">fake</span>';</script>
        <span class="attr">real</span>
        """
        root = parse_html(html)
        found = root.find_all(Selector.parse("span.attr"))
        texts = [n.text() for n in found]
        assert "real" in texts

    def test_attributes_without_values(self):
        root = parse_html("<input disabled><span>after</span>")
        assert root.find(Selector.parse("span")).text() == "after"

    def test_deeply_nested_does_not_crash(self):
        html = "<div>" * 150 + "x" + "</div>" * 150
        root = parse_html(html)
        assert root.find(Selector.parse("div")) is not None
