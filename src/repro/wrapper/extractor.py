"""One pass over the page: extraction specs compiled to a flat program and
run by one loop over one token pattern.

:func:`compile_spec` resolves an :class:`ExtractionSpec` once into an
immutable tree of scopes, each the tuple of its *watches* (one per rule, plus
one per list's item selector); :func:`extract` reads the page with one
``finditer`` of ``_MARKUP``, keeping an explicit stack of open elements and
a short list of open scopes.  No tree is built and nothing recurses on the
page's depth.  docs/TUTORIAL.md states the rules for spec authors ("Tag
soup" is the pattern's grammar); ``tests/wrapper_reference.py`` is the DOM
evaluator over the standard library's tokenizer that the tests compare both
with:

* **first match, no backtracking** — per scope and rule, the first visible
  matching element in document order decides the value, even if it lacks
  the wanted HTML attribute;
* **visibility** — an element is visible to a scope (the document, or a
  list item) unless a ``LIST_BOUNDARY`` element lies strictly between them;
* **text** is all text read while the matched element is open, **own-text**
  the part whose innermost open element is the matched one, both
  whitespace-normalised;
* **stack discipline** — void elements and ``<x/>`` never open, an end tag
  closes up to the nearest open element of its name and is ignored when
  there is none, end of input closes everything;
* **errors** are decided at end of input: the first failing rule in rule
  order, depth-first through list items;
* **early exit** — the loop stops once every document slot is decided and
  no list scope, boundary or text capture is open: by first match, nothing
  after that point can change the tuple.

Which tokens reach Python: **text** never does, since every token takes the
text before it; comments, ``<!…>``, ``<?…>`` and a stray ``<`` cost the
loop's dispatch only.  A **leaf** ``<x …>text</x>`` (no ``<`` in the text,
the end tag's name spelled as the start tag's) is one token.  Unless its
attribute text holds a needle of the program (``candidate``: what a
selector or a boundary needs there) it changes neither stack nor slot, void
and raw text names included, and costs that one search; with a needle it is
a start tag and its end tag.  **Other tags** keep the stack; a start tag
holding a needle is matched against the open scopes (``_matched``).  A **text
capture** is read from page offsets when its element closes: normalised,
and decoded unless ``script`` or ``style`` text, if no ``<`` lies in it;
else the element is re-read by :func:`scan` (the same
pattern as start / end / data events, which the tests compare with
:mod:`html.parser`'s).  The compiled program is shared by every thread
wrapping pages of the scheme; all run state lives in the per-call
:class:`_Run`.
"""

from __future__ import annotations

import re
from html import unescape
from typing import Any, Callable, NamedTuple, Optional, Sequence, TypeAlias, Union

from repro.errors import ExtractionError
from repro.wrapper.spec import LIST_BOUNDARY, AtomRule, ExtractionSpec, ListRule
from repro.wrapper.spec import Selector

__all__ = ["Program", "Reads", "compile_spec", "extract", "scan", "attributes"]

#: Elements that never have closing tags.
VOID_ELEMENTS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "source", "track", "wbr"}
)  # fmt: skip

#: A scope boundary is recognised by its class alone.
(_BOUNDARY_CLASS,) = LIST_BOUNDARY.classes

# slot states that are not values (None is one: an attribute rule's first
# match lacks the wanted HTML attribute)
_MISSING: Any = object()  # no visible element has matched
_OPEN: Any = object()  # matched; its text is read when it closes

# watch kinds: what a matching element does
_ATTR, _TEXT, _OWN, _LIST, _ITEM = range(5)

_Rule = Union[AtomRule, ListRule]
#: the watches of the document, of a list container or of a list item
_Scope: TypeAlias = tuple["_Watch", ...]
#: A read set: the attribute paths a caller reads, every prefix of a path
#: included (``("CourseList",)`` with ``("CourseList", "CName")``).
Reads = frozenset[tuple[str, ...]]


class _Watch(NamedTuple):
    """One selector a scope waits for."""

    tag: Optional[str]
    classes: frozenset[str]
    key: Optional[tuple[str, str]]  # the selector's [attr=value]
    kind: int
    slot: int  # index in the scope's slot list (unused by _ITEM)
    source: str  # _ATTR: the HTML attribute to read
    #: the scope a match opens: a list container's one item watch, an
    #: item's rules (in rule order); empty for atoms
    opens: tuple["_Watch", ...]
    rule: _Rule


class Program(NamedTuple):
    """A compiled :class:`ExtractionSpec` (immutable, shared across threads)."""

    page_scheme: str
    scope: _Scope
    #: ``search(html, pos, endpos)`` for what a start tag's attribute text
    #: must contain for a selector to match it or for it to be a boundary
    candidate: Callable[[str, int, int], object]


def _watch(
    on: Selector, kind: int, slot: int, rule: _Rule, opens: _Scope = ()
) -> _Watch:
    source = rule.source if isinstance(rule, AtomRule) else ""
    return _Watch(on.tag, on.classes, on.attr_equals, kind, slot, source, opens, rule)


def _compile_rules(
    rules: Sequence[_Rule], reads: Optional[Reads], path: tuple = ()
) -> _Scope:
    """The rules ``reads`` names (all when None); a read list keeps its item
    watch even when none of its fields is read: its length still counts."""
    watches: list[_Watch] = []
    for rule in rules:
        here, slot = path + (rule.attr,), len(watches)
        if reads is not None and here not in reads:
            continue
        if isinstance(rule, ListRule):
            fields = _compile_rules(rule.rules, reads, here)
            item = _watch(rule.item, _ITEM, 0, rule, fields)
            watches.append(_watch(rule.container, _LIST, slot, rule, (item,)))
        else:
            kind = {"text": _TEXT, "own-text": _OWN}.get(rule.source, _ATTR)
            watches.append(_watch(rule.selector, kind, slot, rule))
    return tuple(watches)


def _all_watches(scope: _Scope) -> list[_Watch]:
    return [x for w in scope for x in (w, *_all_watches(w.opens))]


def compile_spec(spec: ExtractionSpec, reads: Optional[Reads] = None) -> Program:
    """Resolve ``spec`` once, restricted to the rules ``reads`` names (all
    of them when None); the result is what :func:`extract` runs."""
    scope = _compile_rules(spec.rules, reads)
    # Per selector, one string the attribute text of a matching start tag must
    # contain: the [attr=value] value, else a class, else "" (a tag-only
    # selector rules nothing out).  The value, not the shared class, lets the
    # elements of rules left out of ``reads`` fail it.  "&": a character
    # reference can spell any.
    needles = {"&", _BOUNDARY_CLASS}
    needles.update(
        w.key[1] if w.key else min(w.classes, default="") for w in _all_watches(scope)
    )
    candidate = re.compile("|".join(map(re.escape, sorted(needles))))
    return Program(spec.page_scheme, scope, candidate.search)


# --------------------------------------------------------------------- #
# the token pattern (docs/TUTORIAL.md, "Tag soup", is its grammar)
# --------------------------------------------------------------------- #

_NAME = r"[a-zA-Z][^\s/>]*"
#: Between a start tag's name and its ``>``: separators, and names with an
#: optional value.  A quote opens a value only directly after ``=`` and runs
#: to its partner or to end of input, so the repeat stops only at ``>``,
#: ``/>``, end of input or its bound, and nothing backtracks.  The bound
#: keeps the matcher's state per tag small; :func:`_cut_tag` reads on.
_ATTRIBUTES = (
    r"""(?:\s+|/(?!>)|[^\s/>][^\s/>=]*"""
    r"""(?:\s*=\s*(?:"[^"]*(?:"|\Z)|'[^']*(?:'|\Z)|[^\s>]*))?){0,128}"""
)
#: One token per construct, each taking the text before it (``\Z`` takes the
#: text that ends the page); none can fail once past its first characters.
#: All after a start tag's attributes is optional: a leaf that does not close
#: falls back to the bare start tag, and the matcher re-reads its text, never
#: its attributes.  A construct missing its ``>`` runs to end of input and
#: is dropped.
_MARKUP = re.compile(
    rf"""[^<]*(?:
    <({_NAME}){_ATTRIBUTES}                               # 1: start tag name
      (?:(/)>|(>)(?:([^<]*)</\1(?=[\s/>])[^>]*(>))?)?     # 2: <x/>; 3: >; 4-5: text</x>
    |</({_NAME})[^>]*(>?)                                 # 6-7: end tag: name, >
    |<!--(?s:.*?)(?:-->|\Z)                               # comment
    |<[!?/][^>]*>?                                        # <!doctype>, <?pi>, </3>
    |(<)                                                  # 8: any other "<" is text
    |\Z)""",
    re.VERBOSE,
)
#: A token's ``match.lastindex``: a start tag cut by the bound or the end of
#: input, <x/>, <x>, a leaf, an end tag, a "<" (None for the rest).
_CUT, _EMPTY, _START, _LEAF, _END, _LT = 1, 2, 3, 5, 7, 8
_MORE_ATTRIBUTES = re.compile(rf"{_ATTRIBUTES}(/?)(>?)")
_ATTRIBUTE = re.compile(
    r"""([^\s/>][^\s/>=]*)(?:\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]*)))?"""
)
#: Elements whose content is text whatever it looks like, and what ends it.
_RAW_TEXT = {
    tag: re.compile(rf"</{tag}(?=[\s/>])", re.IGNORECASE | re.ASCII)
    for tag in ("script", "style")
}


def attributes(raw: str) -> dict[str, str]:
    """A start tag's attribute text as ``{lower-cased name: decoded value}``;
    a name without a value has ``""``, of duplicates the last wins."""
    values = {n.lower(): d or s or b for n, d, s, b in _ATTRIBUTE.findall(raw)}
    if "&" in raw:
        values = {name: unescape(value) for name, value in values.items()}
    return values


def _cut_tag(html: str, pos: int) -> Optional[tuple[int, int, bool]]:
    """Read on from ``pos``, where the bound cut a start tag: the end of the
    tag, the end of its attributes, and whether it is ``<x/>``; None when
    the page ends inside it."""
    while pos < len(html):
        more = _MORE_ATTRIBUTES.match(html, pos)
        assert more is not None  # every part of it is optional
        pos, (slash, closed) = more.end(), more.groups()
        if closed:
            return pos, more.start(1), bool(slash)
    return None


def scan(
    html: str,
    start: Callable[[str, str, bool], object],
    end: Callable[[str], object],
    data: Callable[[str], object],
) -> None:
    """Call ``start(tag, attribute text, opens)`` (``opens`` is false for
    ``<x/>``), ``end(tag)`` and ``data(decoded text)`` for ``html``'s tokens
    in document order, tag names lower-cased."""
    pos = 0
    while True:
        for match in _MARKUP.finditer(html, pos):
            kind, text = match.lastindex, match.group().partition("<")[0]
            if text:
                data(unescape(text))
            if kind == _START or kind == _LEAF or kind == _EMPTY:
                tag, text = match.group(1).lower(), match.group(4)
                stop = match.start(_START if kind == _LEAF else kind)
                start(tag, html[match.end(1) : stop], kind != _EMPTY)
                if kind == _LEAF:
                    if text:
                        data(text if tag in _RAW_TEXT else unescape(text))
                    end(tag)
                elif kind == _START and tag in _RAW_TEXT:
                    break
            elif kind == _END and match.group(7):
                end(match.group(6).lower())
            elif kind == _LT:
                data("<")
            elif kind == _CUT and match.end() < len(html):
                break
        else:
            return
        pos = match.end()
        if kind == _CUT:
            cut = _cut_tag(html, pos)
            if cut is None:
                return
            pos, stop, empty = cut
            tag = match.group(1).lower()
            start(tag, html[match.end(1) : stop], not empty)
            if empty or tag not in _RAW_TEXT:
                continue
        # the element's content, up to its end tag, is one undecoded event
        close = _RAW_TEXT[tag].search(html, pos)
        if close is None:
            return
        data(html[pos : close.start()])
        pos = close.start()


def _texts(markup: str) -> tuple[str, str]:
    """The text and the own text of the element ``markup`` starts with."""
    parts: list[tuple[str, bool]] = []  # (text, directly inside the element)
    names: list[str] = []  # the element, then what is open inside it

    def start(tag: str, raw: str, opens: bool) -> None:
        if opens and tag not in VOID_ELEMENTS:
            names.append(tag)

    def end(tag: str) -> None:  # never the element's: that would have closed it
        if tag in names:
            del names[len(names) - 1 - names[::-1].index(tag) :]

    scan(markup, start, end, lambda text: parts.append((text, len(names) == 1)))
    every = " ".join(text for text, _ in parts)
    own = " ".join(text for text, mine in parts if mine)
    return " ".join(every.split()), " ".join(own.split())


class _Done(Exception):
    """Nothing left on the page can change the tuple: the loop stops."""


class _Run:
    """The state of one :func:`extract` call, and its loop (:meth:`read`).

    ``_groups`` are the open scopes visible to the next element, each a
    ``(slots, scope)`` pair: the document's, one per open list item (slots =
    that row's values) and one per open list container (slots = its rows,
    scope = its item watch).  ``_open`` is the stack of open elements: the
    bare tag name, or ``(tag, groups to restore, text captures, start tag
    offset, content offset)`` for the few elements that matched something or
    are a boundary.  The run raises :class:`_Done` once ``_undecided`` (the
    document's slots missing or open) is 0 while ``_groups`` is the
    document's alone.
    """

    def __init__(self, program: Program) -> None:
        self.slots: list[Any] = [_MISSING] * len(program.scope)
        self._undecided = len(self.slots)
        self._root: list[tuple[list[Any], _Scope]] = [(self.slots, program.scope)]
        self._groups = self._root
        # no tag is named "#root": only the end of the page closes it
        self._open: list[Any] = ["#root"]
        self._open_count: dict[str, int] = {"#root": 1}
        self._candidate = program.candidate
        self._html = ""

    def read(self, html: str) -> int:
        """Run the program over ``html``; returns the offset the page was
        read to (its end, unless a raw text element never ends)."""
        self._html = html
        candidate, count = self._candidate, self._open_count
        pos = 0
        while True:
            for match in _MARKUP.finditer(html, pos):
                kind = match.lastindex
                if kind == _LEAF:
                    if candidate(html, match.end(1), match.start(3)) is not None:
                        stop = match.start(3)
                        tag = self._start(match, stop, match.end(3), _START, True)
                        if count.get(tag):  # else it is void and never opened
                            self._end(tag, match.end(4))
                elif kind == _END:
                    tag = match.group(6).lower()
                    if match.group(7) and count.get(tag):
                        self._end(tag, match.start(6) - 2)
                elif kind == _START or kind == _EMPTY:  # <x>, <x/>
                    tag = self._start(match, match.start(kind), match.end(), kind)
                    if kind == _START and tag in _RAW_TEXT:
                        break
                elif kind == _CUT and match.end() < len(html):
                    break
            else:
                return len(html)
            pos = match.end()
            if kind == _CUT:
                cut = _cut_tag(html, pos)
                if cut is None:
                    return len(html)
                pos, stop, empty = cut
                tag = self._start(match, stop, pos, _EMPTY if empty else _START)
                if empty or tag not in _RAW_TEXT:
                    continue
            close = _RAW_TEXT[tag].search(html, pos)
            if close is None:
                return pos
            pos = close.start()

    def _start(
        self,
        match: re.Match[str],
        stop: int,
        content: int,
        kind: int,
        hit: Optional[bool] = None,
    ) -> str:
        """A start tag, <x> or <x/>, whose attributes end at ``stop`` and
        content begins at ``content``; returns its name.  ``hit`` is whether
        the candidate pattern occurs in the attributes, when the caller
        searched them already."""
        tag = match.group(1).lower()
        opens = kind == _START and tag not in VOID_ELEMENTS
        entry: Any = tag
        if hit is None:
            hit = self._candidate(self._html, match.end(1), stop) is not None
        if hit:
            # else no selector can match these attributes, and it is no boundary
            raw = self._html[match.end(1) : stop]
            entry = self._matched(tag, raw, opens, match.start(1) - 1, content)
        if opens:
            self._open.append(entry)
            self._open_count[tag] = self._open_count.get(tag, 0) + 1
        return tag

    def _matched(
        self, tag: str, raw: str, opens: bool, start: int, content: int
    ) -> Any:
        """Fill the slots of the watches this element matches; returns its
        entry for ``_open``."""
        values = attributes(raw)
        classes: Optional[frozenset[str]] = None
        scopes: list[tuple[list[Any], _Scope]] = []  # opened here
        captures: list[tuple[list[Any], int, int]] = []
        for slots, scope in self._groups:
            for wanted, among, key, kind, slot, source, inner, _rule in scope:
                if wanted is not None and wanted != tag:
                    continue
                if key is not None and values.get(key[0]) != key[1]:
                    continue
                if kind != _ITEM and slots[slot] is not _MISSING:
                    continue  # first match only
                if among:
                    if classes is None:
                        classes = frozenset(values.get("class", "").split())
                    if not among <= classes:
                        continue
                if kind == _ATTR:
                    slots[slot] = values.get(source)
                elif kind == _LIST:
                    rows: list[Any] = []
                    slots[slot] = rows
                    scopes.append((rows, inner))  # filled until it closes
                elif kind == _ITEM:
                    row = [_MISSING] * len(inner)
                    slots.append(row)
                    scopes.append((row, inner))
                    continue
                elif not opens:
                    slots[slot] = ""
                else:
                    slots[slot] = _OPEN  # decided when the element closes
                    captures.append((slots, slot, kind))
                    continue
                if slots is self.slots:
                    self._undecided -= 1
        if opens:
            cls = values.get("class", "")
            # substring first: few elements get as far as the split
            boundary = _BOUNDARY_CLASS in cls and _BOUNDARY_CLASS in cls.split()
            if boundary or scopes or captures:
                entry = (tag, self._groups, captures, start, content)
                # a boundary hides every open scope but those it opens itself
                self._groups = scopes if boundary else self._groups + scopes
                return entry
        if not self._undecided and self._groups is self._root:
            raise _Done
        return tag

    def _end(self, tag: str, at: int) -> None:
        """An end tag at offset ``at``, of a name that is open: it closes
        up to the nearest element of that name."""
        stack, count = self._open, self._open_count
        while True:
            top = stack.pop()
            if top.__class__ is not str:
                top = self._closed(top, at)
            count[top] -= 1
            if top == tag:
                return

    def _closed(self, entry: tuple[str, Any, Any, int, int], end: int) -> str:
        """Decide its text captures, the page up to ``end`` read; restore
        the scopes visible before it."""
        tag, self._groups, captures, start, content = entry
        if captures:
            text = self._html[content:end]
            if tag in _RAW_TEXT:
                text = own = " ".join(text.split())
            elif "<" in text:
                text, own = _texts(self._html[start:end])
            else:
                text = own = " ".join(unescape(text).split())
            for slots, slot, kind in captures:
                slots[slot] = own if kind == _OWN else text
                if slots is self.slots:
                    self._undecided -= 1
        if not self._undecided and self._groups is self._root:
            raise _Done
        return tag



def _row(scope: _Scope, slots: list[Any]) -> dict[str, Any]:
    """Slots → ``{attr: value}`` in rule order, raising for the first rule
    that failed (depth-first through list items, like a per-rule walk)."""
    row: dict[str, Any] = {}
    for watch in scope:
        rule = watch.rule
        value = slots[watch.slot]
        if isinstance(rule, ListRule):
            if value is _MISSING:
                raise ExtractionError(
                    f"list {rule.attr!r}: no container matches {rule.container}"
                )
            (item,) = watch.opens
            value = [_row(item.opens, values) for values in value]
        elif value is None:
            if not rule.optional:
                raise ExtractionError(
                    f"attribute {rule.attr!r}: element lacks @{rule.source}"
                )
        elif value is _MISSING:
            if not rule.optional:
                raise ExtractionError(
                    f"attribute {rule.attr!r}: no element matches {rule.selector}"
                )
            value = None
        row[rule.attr] = value
    return row


def extract(program: Program, html: str) -> dict[str, Any]:
    """The page's raw tuple (without the URL, which the caller knows)."""
    run = _Run(program)
    try:
        if program.scope:  # else nothing on the page is read
            run._end("#root", run.read(html))  # the end of the page closes all
    except _Done:
        pass
    try:
        return _row(program.scope, run.slots)
    except ExtractionError as exc:
        raise ExtractionError(f"{program.page_scheme}: {exc}") from None
