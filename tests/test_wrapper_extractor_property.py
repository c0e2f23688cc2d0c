"""Property test: the one-pass extractor ≡ the reference DOM evaluator.

``repro.wrapper.extractor`` evaluates a compiled spec in one loop over its
own token pattern; ``tests/wrapper_reference.py`` builds a tree from html.parser's
events and walks it once per rule.  On every page they must produce the same
raw tuple, or fail with the same :class:`ExtractionError` message:

(a) every page of the generated sites (university before and after a site
    manager's pass, bibliography, movies, fuzzed seeds), where the two
    tokenizers must also agree event by event;
(b) hostile markup assembled from a small fragment alphabet × hand-written
    and generated specs;
(c) the scanner's grammar written out as data, one case per line of
    docs/TUTORIAL.md "Tag soup": what the scanner reads is pinned here, not
    inherited from the running interpreter's html.parser.  The constructs
    the two read differently *on purpose* are not in (b)'s alphabet; each is
    a case of ``DIFFERENCES`` with the value the scanner must produce.

The ``@example`` pages pin one case per semantic rule of the extractor's
module docstring, and one per kind of leaf token, so breaking any one rule
fails this file deterministically.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ExtractionError
from repro.sitegen import SiteMutator, build_university_site
from repro.sitegen.bibliography import build_bibliography_site
from repro.sitegen.fuzz import FuzzConfig, build_fuzzed_site
from repro.sitegen.movies import build_movie_site
from repro.wrapper.conventions import registry_for_scheme
from repro.wrapper.spec import Selector
from repro.wrapper.extractor import compile_spec, extract
from repro.wrapper.spec import AtomRule, ExtractionSpec, ListRule

from tests import wrapper_reference as reference
from tests.conftest import SMALL_BIB_CONFIG, SMALL_CONFIG


def outcome(run):
    try:
        return run()
    except ExtractionError as exc:
        return f"ExtractionError: {exc}"


def relaxed(rule):
    """``rule`` with every atom optional: it fails only for a missing
    container, so differences in *values* are not masked by an error."""
    if isinstance(rule, AtomRule):
        return dataclasses.replace(rule, optional=True)
    return dataclasses.replace(rule, rules=tuple(relaxed(r) for r in rule.rules))


def assert_equivalent(spec: ExtractionSpec, html: str) -> None:
    """The spec as written (which error wins), then each of its rules alone
    and relaxed (which values come out)."""
    root = reference.parse_html(html)
    alone = [ExtractionSpec(spec.page_scheme, (relaxed(r),)) for r in spec.rules]
    for variant in [spec, *alone]:
        program = compile_spec(variant)
        got = outcome(lambda: extract(program, html))
        want = outcome(lambda: reference.extract(variant, root))
        assert got == want


# --------------------------------------------------------------------- #
# (a) generated sites
# --------------------------------------------------------------------- #


def assert_site_equivalent(site) -> int:
    registry = registry_for_scheme(site.scheme)
    server = site.server
    pages = 0
    for url in sorted(server.urls()):
        resource = server.resource(url)
        html = resource.html
        assert reference.scanner_events(html) == reference.parser_events(html)
        assert_equivalent(registry.wrapper(resource.page_scheme).spec, html)
        pages += 1
    return pages


def test_university_pages_before_and_after_a_mutator_pass():
    site = build_university_site(SMALL_CONFIG)
    before = assert_site_equivalent(site)
    mutator = SiteMutator(site)
    rng = random.Random(5)
    mutator.revise_courses(0.5, revision="rev <b>&amp;</b> 2")
    mutator.add_course(rng.choice(site.profs))
    mutator.remove_course(rng.choice(site.courses))
    mutator.move_course(rng.choice(site.courses), rng.choice(site.profs))
    mutator.add_prof(site.depts[0].name)
    mutator.update_dept_address(site.depts[0].name, "1 <Main> & Side St")
    after = assert_site_equivalent(site)
    assert before > 0 and after == before + 1


def test_bibliography_and_movie_pages():
    assert assert_site_equivalent(build_bibliography_site(SMALL_BIB_CONFIG)) > 0
    assert assert_site_equivalent(build_movie_site()) > 0


@pytest.mark.parametrize("seed", range(1, 40))
def test_fuzzed_site_pages(seed):
    assert assert_site_equivalent(build_fuzzed_site(FuzzConfig(seed=seed))) > 0


# --------------------------------------------------------------------- #
# (b) hostile markup × specs
# --------------------------------------------------------------------- #

FRAGMENTS = [
    # elements the specs look for, well-formed and not
    '<span class="attr" data-attr="A">',
    '<span class="attr other" data-attr="A">',
    '<span class="attr" data-attr="A"/>',
    '<span data-attr="A">',
    '<a class="attr" data-attr="L" href="u1.html">',
    '<a class="attr" data-attr="L">',
    '<a class=attr data-attr=L href=u2.html>',
    '<a class="attr" data-attr="L" href="first" href="u3.html?a=1&amp;b=2">',
    '<a href="plain.html">',
    '<img class="attr" data-attr="I" src="i.gif">',
    '<img class="attr" data-attr="I">',
    '<ul class="attr-list" data-attr="Xs">',
    '<ul class="attr-list" data-attr="Ys">',
    '<ul class="attr-list" data-attr="Xs"/>',
    '<ul class="faculty">',
    '<div class="attr-list">',
    '<li class="item">',
    '<li class="item attr-list">',
    '<li class="item"/>',
    "<li>",
    # structure and chrome
    "<div>", "<p>", "<b>", '<td class="val">', "<br>", "<br/>", "<hr>",
    "<input disabled>", "<DIV CLASS='attr' DATA-ATTR='A'>",
    # end tags: matching, stray, void, unknown
    "</span>", "</a>", "</ul>", "</li>", "</div>", "</p>", "</b>", "</td>",
    "</img>", "</br>", "</nosuch>", "</SPAN>",
    # text
    "word", "two  words", " ", "\n  ", "Fish &amp; Chips", "&lt;b&gt;",
    "a&nbsp;b", "&#65;&#x42;", "x < y", "&amp", " ",
    # things that must not be mistaken for markup
    '<!-- <span class="attr" data-attr="A">fake</span> -->',
    "<script>var s = '<span class=\"attr\" data-attr=\"A\">fake</span>';</script>",
    "<script>", "</script>", "<style>.attr { }</style>", "<title>",
    "<!DOCTYPE html>", "<![CDATA[ cdata ]]>", "<?php echo 1 ?>",
    "<", "</", '<a href="unterminated',
]  # fmt: skip

#: ``<``, ``</`` and the open quote stay in the alphabet for what they do to
#: the markup after them; this tail closes whatever the last of them opened,
#: because end of input inside a construct is where the grammars differ
TERMINATOR = "\"'>"
PAGES = st.lists(st.sampled_from(FRAGMENTS), max_size=40).map(
    lambda fragments: "".join(fragments) + TERMINATOR
)

S = Selector.parse
A_SEL, L_SEL = S(".attr[data-attr=A]"), S("a.attr[data-attr=L]")


def conventional(optional_link: bool) -> ExtractionSpec:
    return ExtractionSpec(
        "P",
        (
            AtomRule("A", A_SEL),
            AtomRule("L", L_SEL, source="href", optional=optional_link),
            AtomRule("I", S("img.attr[data-attr=I]"), source="src", optional=True),
            ListRule(
                "Xs",
                S("ul.attr-list[data-attr=Xs]"),
                S("li.item"),
                (
                    AtomRule("A", A_SEL, optional=True),
                    AtomRule("L", L_SEL, source="href", optional=True),
                ),
            ),
        ),
    )


#: a list in a list, reusing the outer attribute name
NESTED = ExtractionSpec(
    "P",
    (
        ListRule(
            "Xs",
            S("ul.attr-list[data-attr=Xs]"),
            S("li.item"),
            (
                AtomRule("A", A_SEL, optional=True),
                ListRule(
                    "Ys",
                    S("ul.attr-list[data-attr=Ys]"),
                    S("li.item"),
                    (AtomRule("A", A_SEL),),
                ),
            ),
        ),
    ),
)

#: tag-only selectors, two rules on one element, a container that is not a
#: boundary (its items' content stays visible to the document's rules)
LEGACY = ExtractionSpec(
    "P",
    (
        AtomRule("Name", S("a"), optional=True),
        AtomRule("To", S("a"), source="href", optional=True),
        ListRule(
            "Rows",
            S("ul"),
            S("li"),
            (
                AtomRule("Name", S("a"), optional=True),
                AtomRule("To", S("a"), source="href", optional=True),
                AtomRule("Bold", S("b"), source="own-text", optional=True),
            ),
        ),
    ),
)

OWN_TEXT = ExtractionSpec(
    "P",
    (
        AtomRule("Div", S("div"), source="own-text"),
        AtomRule("Span", S("span"), source="own-text", optional=True),
        AtomRule("Cell", S("td.val"), optional=True),
        ListRule(
            "Any",
            S(".attr-list"),
            S("li"),
            (
                AtomRule("Own", S("span"), source="own-text", optional=True),
                AtomRule("All", S("li"), optional=True),
                ListRule("Deep", S("ul"), S("li.item"), (AtomRule("P", S("p")),)),
            ),
        ),
    ),
)

#: the same element wanted twice, and a failing rule after a failing list
ORDER = ExtractionSpec(
    "P",
    (
        AtomRule("A1", A_SEL, optional=True),
        AtomRule("A2", A_SEL, source="own-text"),
        ListRule("Xs", S("ul[data-attr=Xs]"), S("li.item"), (AtomRule("L", L_SEL, source="href"),)),
        AtomRule("I", S("img"), source="src"),
    ),
)  # fmt: skip

#: no selector of it shares a substring with the boundary class
CELL = ExtractionSpec("P", (AtomRule("Cell", S("td.val")),))

#: a tag-less selector without a class: text and own text of any element
ANY = ExtractionSpec(
    "P",
    (
        AtomRule("T", S("[data-attr=A]"), optional=True),
        AtomRule("O", S("[data-attr=A]"), source="own-text", optional=True),
    ),
)

HAND_SPECS = [
    conventional(False), conventional(True), NESTED, LEGACY, OWN_TEXT, ORDER, CELL
]

SELECTORS = st.sampled_from(
    [A_SEL, L_SEL, S("span"), S("a"), S("li"), S("li.item"), S("ul"), S("div"),
     S(".attr"), S(".attr-list"), S("ul.attr-list[data-attr=Xs]"), S("[data-attr=A]"),
     S("img"), S("b"), S("br"), S("span.attr.other"), S("[href=u1.html]")]
)  # fmt: skip
ATOMS = st.builds(
    AtomRule,
    attr=st.sampled_from(["F", "G", "H"]),
    selector=SELECTORS,
    source=st.sampled_from(["text", "own-text", "href", "src", "class"]),
    optional=st.booleans(),
)
RULES = st.recursive(
    ATOMS,
    lambda inner: st.builds(
        ListRule,
        attr=st.sampled_from(["Ls", "Ms"]),
        container=SELECTORS,
        item=SELECTORS,
        rules=st.lists(inner, max_size=3).map(tuple),
    ),
    max_leaves=6,
)
SPECS = st.one_of(
    st.sampled_from(HAND_SPECS),
    st.builds(ExtractionSpec, st.just("P"), st.lists(RULES, max_size=4).map(tuple)),
)

ITEM = '<li class="item">'
XS = '<ul class="attr-list" data-attr="Xs">'
YS = '<ul class="attr-list" data-attr="Ys">'
A = '<span class="attr" data-attr="A">'
L = '<a class="attr" data-attr="L"'


# fmt: off
@given(SPECS, PAGES)
@settings(max_examples=1500, deadline=None)
# first match, no backtracking: the first L lacks href, a later one has it
@example(conventional(False), f"{A}1</span>{L}>x</a>{L} href=u>y</a>{XS}</ul>")
@example(conventional(True), f"{A}1</span>{L}>x</a>{L} href=u>y</a>{XS}</ul>")
# two rules on one element
@example(LEGACY, '<ul><li><a href="u">n</a></li></ul>')
# visibility: a boundary is visible itself, hides its content, not its own items
@example(conventional(True), f"{XS}{ITEM}{A}in</span></li></ul>{A}out</span>")
@example(conventional(True), f'{A}a</span>{XS}{ITEM}<div class="attr-list">{A}hidden</span></div>{A}seen</span></li></ul>')
@example(NESTED, f"{XS}{ITEM}{YS}{ITEM}{A}deep</span></li></ul>{A}mine</span></li></ul>")
@example(OWN_TEXT, '<div>d</div><div class="attr-list"><li><span>s</span><ul><li class="item"><p>p</p><ul></ul></li></ul></li></div>')
# an item inside an item: its own row, and seen by the outer item's rules
@example(conventional(True), f"{A}a</span>{XS}{ITEM}{ITEM}{A}inner</span></li></li></ul>")
# an item that is itself a boundary
@example(conventional(True), f'{A}a</span>{XS}<li class="item attr-list">{A}x</span>{ITEM}{A}y</span></li></li></ul>')
# text: inside nested boundaries too; own-text: innermost open element only
@example(conventional(True), f'{A}a <ul class="attr-list"><li>b</li></ul> c</span>{XS}</ul>')
@example(OWN_TEXT, '<div>top <span>inner <b>deep</b> tail</span> end</div><p class="attr-list">')
# stack discipline: void, <x/>, stray end tags, unclosed elements
@example(conventional(True), f"{A}a<br>b<br/>c</br>d</span></span></ul>e{XS}</ul>")
@example(conventional(True), f"{XS}{ITEM}</span></ul>{ITEM}{A}x</span></ul>{ITEM}")
@example(OWN_TEXT, '<div>top<br>tail<img class="attr-list">more</div><p class="attr-list"><li>')
@example(conventional(True), f'{A}a</span><hr class="attr-list">{XS}{ITEM}<input class="attr-list">{A}x</span>')
@example(conventional(True), f'<span class="attr" data-attr="A"/>after{XS}{ITEM}{A}x')
@example(conventional(True), f"{A}one<p>two</div>three</span>four{XS}<li class=item />")
# duplicate attributes: the last wins
@example(conventional(False), f'{A}a</span>{L} href="first" href="last">{XS}</ul>')
# attributes are only parsed when their text could matter: a boundary nobody
# selects, a class spelled with a character reference
@example(CELL, '<div class="attr-list"><td class="val">in</td></div><td class="val">out</td>')
@example(CELL, '<td class="va&#108;">spelled</td><td class="val">plain</td>')
# a tag of more attributes than the scanner's pattern takes in one match
@example(conventional(False), f'{A}a</span>{L}{" x=y" * 200} href="u"/>{XS}</ul>')
@example(LEGACY, f'<ul{" / x = 1" * 99}><li>a<a{" x" * 500} href=u>n</a></li></ul>')
# a leaf <x ...>text</x> is one token: one that opens a text capture, an
# own-text capture, a list container, a boundary; a void one; raw text; <x/>
# before an end tag of its name; end names that differ only in case
@example(conventional(True), f"{A}leaf</span>{XS}</ul>{A}second</span>")
@example(OWN_TEXT, '<div>own</div><p class="attr-list"><li><span>s</span></li></p>')
@example(conventional(True), f'{A}a</span><div class="attr-list">{A}x</div>{XS}</ul>')
@example(conventional(True), f'<br class="attr" data-attr="A">x</br>{XS}</ul>')
@example(ANY, '<script data-attr=A>a&amp;b</script><style data-attr=A>c</style>')
@example(ANY, '<p data-attr=A>a<script>b&amp;c<i>d</i></script>e&amp;f</p>')
@example(conventional(True), f"{A}a<span/>t</span>u</span>{XS}</ul>")
@example(conventional(True), f"<script/>{A}x</span></script>{XS}</ul>")
@example(ANY, '<ai data-attr=A>a<aİ>b</ai>c</ai>')
@example(ANY, '<ab data-attr=A>a<a>x</ab>y</ab>')
@example(ANY, '<p data-attr=A>a<script>b&amp;c</script>d<i>e</i></p>')
@example(ANY, '<b data-attr=A>a<B>b</b>c</b>d</b>')
# an end tag's name is lower-cased before it closes anything
@example(conventional(True), f"{A}a</SPAN>b{XS}</ul>")
# the end of the page inside a start tag drops it
@example(conventional(True), f'{XS}</ul><span class="attr" data-attr="A"')
# errors: the first failing rule in rule order, through list items
@example(ORDER, f"{A}a</span>{XS}{ITEM}</li>{ITEM}{L}>")
@example(ORDER, f"{A}a</span>{XS}</ul>")
@example(ORDER, "<img>")
def test_extractor_equals_reference_on_hostile_markup(spec, html):
    assert_equivalent(spec, html)
# fmt: on


# --------------------------------------------------------------------- #
# (c) the scanner's grammar
# --------------------------------------------------------------------- #


def start(tag, opens=True, **attrs):
    return ("start", tag, {k.rstrip("_"): v for k, v in attrs.items()}, opens)


def end(tag):
    return ("end", tag)


def data(*texts):
    return [("data", text) for text in texts]


GRAMMAR = [
    # text: to the next "<"; character references decoded
    ("Fish &amp; Chips &#65;&#x42; a&nbsp;b &lt", data("Fish & Chips AB a b <")),
    # start and end tags: names lower-cased, an end tag's tail ignored
    ('<P Class="x">t</P >', [start("p", class_="x"), *data("t"), end("p")]),
    ("</p class='ignored'></a/>", [end("p"), end("a")]),
    ("<a<b x>", [start("a<b", x="")]),
    # <x/> opens nothing
    ("<br/><br />t", [start("br", False), start("br", False), *data("t")]),
    # attribute values: unquoted to white space or ">", quoted over anything
    ("<a href=u/ x=a'b\"c>", [start("a", href="u/", x="a'b\"c")]),
    ("<a t='x > \"y\"' u=\"a\nb='c'\">", [start("a", t='x > "y"', u="a\nb='c'")]),
    ("<a\nhref\n=\n'u'\tx = 1>", [start("a", href="u", x="1")]),
    # "/" between attributes only separates; a name may hold anything else
    ('<a/b / c x"y=1 =z>', [start("a", b="", c="", **{'x"y': "1", "=z": ""})]),
    # references in values decoded, names lower-cased, the last duplicate wins
    ('<a href="first" HREF="u?a=1&amp;b=2&lt">', [start("a", href="u?a=1&b=2<")]),
    # a tag has as many attributes as it likes
    (f"<a{' x=y' * 300} z>t", [start("a", x="y", z=""), *data("t")]),
    # comments, declarations, processing instructions, bogus end tags: nothing
    ("a<!-- <p> - -- --b -->c<!---->d", data("a", "c", "d")),
    ("a<!DOCTYPE html>b<![CDATA[ x ]]>c<![if x]>d<!>e<?php 1 ?>f", data(*"abcdef")),
    ("a</>b</3>c</ p>d", data(*"abcd")),
    # script and style: text up to their end tag, undecoded
    ("<script>a<b>&amp;<!--</p></SCRIPT x>c",
     [start("script"), *data("a<b>&amp;<!--</p>"), end("script"), *data("c")]),
    ("<STYLE>a</styles></style\n>", [start("style"), *data("a</styles>"), end("style")]),
    ("<script>a&amp;b</script><style>c&lt;</style>",
     [start("script"), *data("a&amp;b"), end("script"), start("style"), *data("c&lt;"), end("style")]),
    ("<script/><b>", [start("script", False), start("b")]),
    ("<title><b></title>", [start("title"), start("b"), end("title")]),
    # any other "<" is text
    ("a < b <3 <> << x", data("a", "<", "b", "<", "3", "<", ">", "<", "<", "x")),
]  # fmt: skip


@pytest.mark.parametrize("html, events", GRAMMAR, ids=range(len(GRAMMAR)))
def test_scanner_grammar(html, events):
    assert reference.scanner_events(html) == events


#: Where the scanner differs from html.parser on purpose (3.11's reading in
#: the comment; later patch levels moved, which is why nothing asserts it).
DIFFERENCES = [
    # a name without a value is "", as in HTML5; html.parser: None
    ("<a href hidden=>", [start("a", href="", hidden="")]),
    # end of input inside a construct drops it, as HTML5 does, and with it
    # the rest of the page: nothing is read twice.  html.parser re-reads the
    # construct as text up to the next ">" or "<" and carries on.
    ("x<a href", data("x")),
    ("x<a href=u", data("x")),
    ("x<a href='u>y</a><b>z</b>", data("x")),
    ('x<a href="u>y</a><b>z</b>', data("x")),
    ("x<a", data("x")),
    ("x</", data("x")),
    ("x</a", data("x")),
    ("x</a <b", data("x")),
    ("x<!-- c --", data("x")),
    ("x<!-- <b>y</b>", data("x")),
    ("x<!doctype", data("x")),
    ("x<?php", data("x")),
    ("x<![CDATA[ y", data("x")),
    # ... as html.parser also does for raw text without its end tag
    ("x<script>y</scrip", [*data("x"), start("script")]),
    # "</" directly followed by a letter starts an end tag; html.parser skips
    # white space first
    ("<p>a</ p>b", [start("p"), *data("a", "b")]),
    ("<script>a</ script>b</script>", [start("script"), *data("a</ script>b"), end("script")]),
    # a comment ends at "-->" alone; html.parser: also at "-- >"
    ("a<!-- b -- > c -->d", data("a", "d")),
    # "<![" … ends at the first ">", whatever it says; html.parser looks for
    # "]]>" after CDATA[ and raises AssertionError on a keyword it does not know
    ("a<![CDATA[ b > c ]]>d", data("a", "c ]]>d")),
    ("a<![endif]-->b<![x", data("a", "b")),
    # one "=" introduces a value; html.parser swallows a run of them
    ("<a b==c>", [start("a", b="=c")]),
    # raw text ends at "</script" + white space, "/" or ">"; html.parser only
    # at "</script" + white space + ">"
    ("<script>a</script x>b", [start("script"), *data("a"), end("script"), *data("b")]),
    # white space is what str.split splits on, in a tag name too
    ("<p\x0bx>t</p\xa0>", [start("p", x=""), *data("t"), end("p")]),
]  # fmt: skip


@pytest.mark.parametrize("html, events", DIFFERENCES, ids=range(len(DIFFERENCES)))
def test_where_the_scanner_differs_from_html_parser(html, events):
    assert reference.scanner_events(html) == events


def test_valueless_attribute_through_the_extractor():
    """``href`` without a value: the reference yields None (the rule fails,
    or an optional link is null), the extractor the empty string."""
    html = f"{A}a</span>{L} href>{XS}</ul>"
    root = reference.parse_html(html)
    for optional, theirs in (
        (False, "ExtractionError: P: attribute 'L': element lacks @href"),
        (True, {"A": "a", "L": None, "I": None, "Xs": []}),
    ):
        spec = conventional(optional)
        assert outcome(lambda: reference.extract(spec, root)) == theirs
        assert extract(compile_spec(spec), html) == {
            "A": "a", "L": "", "I": None, "Xs": [],
        }  # fmt: skip
