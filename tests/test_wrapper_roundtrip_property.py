"""Property-based render→wrap round-trip tests.

The keystone integrity property of the whole pipeline: for ANY page-scheme
and ANY well-typed tuple, rendering the tuple to HTML and wrapping the HTML
back recovers exactly the original tuple.  Hypothesis generates random
page-schemes (including nested lists two levels deep) and random tuples.
"""

from __future__ import annotations

from urllib.parse import urljoin

from hypothesis import example, given, settings, strategies as st

from repro.adm.page_scheme import Attribute, PageScheme
from repro.adm.webtypes import IMAGE, TEXT, link, list_of
from repro.sitegen.html_writer import render_page
from repro.wrapper.conventions import spec_for_page_scheme
from repro.wrapper.wrapper import _ABSOLUTE, PageWrapper, resolve

# text values: printable, including HTML-hostile characters
TEXT_VALUES = st.text(
    alphabet=st.characters(
        codec="utf-8",
        categories=("L", "N", "P", "S", "Zs"),
    ),
    min_size=1,
    max_size=30,
).map(lambda s: " ".join(s.split())).filter(bool)

ATTR_NAMES = st.sampled_from(
    ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", "Eta", "Theta"]
)


@st.composite
def page_schemes(draw):
    names = draw(
        st.lists(ATTR_NAMES, min_size=1, max_size=4, unique=True)
    )
    attributes = []
    for i, name in enumerate(names):
        kind = draw(st.sampled_from(["text", "image", "link", "list"]))
        if kind == "text":
            attributes.append(Attribute(name, TEXT))
        elif kind == "image":
            attributes.append(Attribute(name, IMAGE))
        elif kind == "link":
            attributes.append(Attribute(name, link("Target")))
        else:
            inner_names = draw(
                st.lists(ATTR_NAMES, min_size=1, max_size=3, unique=True)
            )
            fields = []
            for j, inner in enumerate(inner_names):
                inner_kind = draw(st.sampled_from(["text", "link", "list"]))
                if inner_kind == "text":
                    fields.append((inner, TEXT))
                elif inner_kind == "link":
                    fields.append((inner, link("Target")))
                else:
                    fields.append((inner, list_of(("Deep", TEXT))))
            attributes.append(Attribute(name, list_of(*fields)))
    return PageScheme("RandomPage", attributes)


def value_for(draw, wtype):
    from repro.adm.webtypes import LinkType, ListType, TextType, ImageType

    if isinstance(wtype, (TextType,)):
        return draw(TEXT_VALUES)
    if isinstance(wtype, ImageType):
        return "http://x/img" + str(draw(st.integers(0, 99))) + ".gif"
    if isinstance(wtype, LinkType):
        return "http://x/t" + str(draw(st.integers(0, 99))) + ".html"
    if isinstance(wtype, ListType):
        n = draw(st.integers(0, 3))
        return [
            {fname: value_for(draw, ftype) for fname, ftype in wtype.fields}
            for _ in range(n)
        ]
    raise AssertionError(wtype)


@st.composite
def scheme_and_tuple(draw):
    ps = draw(page_schemes())
    row = {a.name: value_for(draw, a.wtype) for a in ps.attributes}
    return ps, row


@given(scheme_and_tuple())
@settings(max_examples=60, deadline=None)
def test_render_wrap_round_trip(pair):
    ps, row = pair
    html = render_page(ps, row, title="Random & <Page>")
    wrapper = PageWrapper(ps, spec_for_page_scheme(ps))
    wrapped = wrapper.wrap("http://x/random.html", html)
    assert wrapped == {"URL": "http://x/random.html", **row}


@given(scheme_and_tuple())
@settings(max_examples=30, deadline=None)
def test_wrapping_is_deterministic(pair):
    ps, row = pair
    html = render_page(ps, row)
    wrapper = PageWrapper(ps, spec_for_page_scheme(ps))
    first = wrapper.wrap("http://x/p.html", html)
    second = wrapper.wrap("http://x/p.html", html)
    assert first == second


# --------------------------------------------------------------------- #
# link resolution: the absolute-URL fast path ≡ urljoin
# --------------------------------------------------------------------- #

URL_PIECES = st.sampled_from(
    ["http", "HTTP", "https", "ftp", "mailto", "x-y.z+1", "1http", "ht tp", "",
     ":", "://", ":/", "//", "/", "host", "HOST", "host:80", "user:pw@host", "h%41",
     "[::1]", "[bad", "ho st", "a", "b.html", ".", "..", "./", "../", ";p", ";", "~",
     "?", "?a=1&b=2", "??", "?a/b?c", "#", "#f", "#f#g", "#f?g", "%20", "%", "+", "=",
     "&", "!$()*,'", "@", "_", "-", " ", "\t", "\n", "\r", "\x00", "\x1f", "\x7f",
     "\xa0", "é", "\u2028", "\\", "<", '"', "^", "|", "{}"]
)  # fmt: skip
#: anything at all, and values the fast path does take
LINKS = st.one_of(
    st.lists(URL_PIECES, max_size=10).map("".join),
    st.from_regex(_ABSOLUTE, fullmatch=True),
)
BASES = st.sampled_from(
    ["http://x/a/b.html", "http://x", "https://x/a/?q#f", "HTTP://x/", "ftp://x/a/",
     "mailto:a@x", "//x/a", "/a/b", "a/b", ""]
)  # fmt: skip


def joined(join, base, link):
    try:
        return join(base, link)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(BASES, LINKS)
@settings(max_examples=3000, deadline=None)
@example("http://x/a/b.html", "http://univ.example/prof/ada-lovelace.html")
@example("http://x/a/b.html", "http://host/a;p?q=1&r=(2)#f")
@example("http://x/a/b.html", "http://host/../a/./b")
@example("http://x/a/b.html", "http://host/a?#")
@example("http://x/a/b.html", "HTTP://host/a")
@example("http://x/a/b.html", " http://host/a\n")
def test_resolve_is_urljoin(base, link):
    assert joined(resolve, base, link) == joined(urljoin, base, link)


#: links the shortcut must leave to ``urljoin``
NOT_FAST = [
    "course/algebra-100.html", "/a", "//host/a", "HTTP://host/a", "http://host/a b",
    "http://host/a;p", "http://[::1]/", "mailto:a@x", "http://host/a?",
    "http://host/a#", "http://hôst/", "",
]  # fmt: skip


def test_the_fast_path_takes_the_generated_sites_links():
    """What the shortcut is for: every link of a generated page is absolute
    and inside the pattern (so no wrap of them calls ``urljoin``)."""
    assert _ABSOLUTE.fullmatch("http://univ.example/course/algebra-100.html")
    assert _ABSOLUTE.fullmatch("http://dblp.example/db/conf/vldb96.html?x=1#top")
    assert not any(map(_ABSOLUTE.fullmatch, NOT_FAST))
