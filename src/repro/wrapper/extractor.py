"""One pass over the page: extraction specs compiled to a flat program and
evaluated over the events of a scanner of our own.

:func:`compile_spec` resolves an :class:`ExtractionSpec` once into an
immutable tree of scopes, each a set of *watches* (one per rule, plus one per
list's item selector) indexed by the ``[attr=value]`` test they make;
:func:`scan` reads a page once into start / end / data events; :func:`extract`
runs the program over them with an explicit stack of open elements and a
short list of open scopes.  No tree is built and nothing recurses on the
page's depth.  docs/TUTORIAL.md states the rules for spec authors ("Tag soup"
is the scanner's grammar); ``tests/wrapper_reference.py`` is the DOM evaluator
over the standard library's tokenizer that the tests compare both with:

* **first match, no backtracking** — per scope and rule, the first visible
  matching element in document order decides the value, even if it lacks
  the wanted HTML attribute;
* **visibility** — an element is visible to a scope (the document, or a
  list item) unless a ``LIST_BOUNDARY`` element lies strictly between them;
* **text** is every data event while the matched element is open,
  **own-text** those whose innermost open element is the matched one, both
  whitespace-normalised;
* **stack discipline** — void elements and ``<x/>`` never open, an end tag
  closes up to the nearest open element of its name and is ignored when
  there is none, end of input closes everything;
* **errors** are decided at end of input: the first failing rule in rule
  order, depth-first through list items;
* **early exit** — the scan stops once every document slot is decided and
  no list scope, boundary or text capture is open: by first match, nothing
  after that point can change the tuple.

The compiled program is shared by every thread wrapping pages of the
scheme; all run state lives in the per-call :class:`_Run`.
"""

from __future__ import annotations

import re
from html import unescape
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

from repro.errors import ExtractionError
from repro.wrapper.dom import Selector
from repro.wrapper.spec import LIST_BOUNDARY, AtomRule, ExtractionSpec, ListRule

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
_OPEN: Any = object()  # matched; its text is still being collected

# watch kinds: what a matching element does
_ATTR, _TEXT, _OWN, _LIST, _ITEM = range(5)

_Rule = Union[AtomRule, ListRule]
#: A read set: the attribute paths a caller reads, every prefix of a path
#: included (``("CourseList",)`` with ``("CourseList", "CName")``).
Reads = frozenset[tuple[str, ...]]


class _Watch(NamedTuple):
    """One selector a scope waits for."""

    tag: Optional[str]
    classes: frozenset[str]
    key: Optional[tuple[str, str]]  # the selector's [attr=value]: the scope's index key
    kind: int
    slot: int  # index in the scope's slot list (unused by _ITEM)
    source: str  # _ATTR: the HTML attribute to read
    #: the scope a match opens: a list container's one item watch, an
    #: item's rules; empty for atoms
    opens: "_Scope"
    rule: _Rule


class _Scope(NamedTuple):
    watches: tuple[_Watch, ...]  # in rule order
    #: (attribute name, {wanted value: watches}), one per name the scope's
    #: selectors test: a start tag costs a lookup, not a scan of the rules
    keyed: tuple[tuple[str, dict[Optional[str], tuple[_Watch, ...]]], ...]
    unkeyed: tuple[_Watch, ...]  # selectors without an attribute test


class Program(NamedTuple):
    """A compiled :class:`ExtractionSpec` (immutable, shared across threads)."""

    page_scheme: str
    scope: _Scope
    own_text: bool  # some rule reads "own-text"
    #: ``search`` of what a start tag's attribute text must contain for a
    #: selector to match it or for it to be a boundary
    candidate: Callable[[str], object]


def _scope(*watches: _Watch) -> _Scope:
    keyed: dict[str, dict[Optional[str], tuple[_Watch, ...]]] = {}
    for watch in watches:
        if watch.key is not None:
            name, value = watch.key
            table = keyed.setdefault(name, {})
            table[value] = table.get(value, ()) + (watch,)
    unkeyed = tuple(w for w in watches if w.key is None)
    return _Scope(watches, tuple(keyed.items()), unkeyed)


def _watch(
    on: Selector, kind: int, slot: int, rule: _Rule, opens: _Scope = _scope()
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
            watches.append(_watch(rule.container, _LIST, slot, rule, _scope(item)))
        else:
            kind = {"text": _TEXT, "own-text": _OWN}.get(rule.source, _ATTR)
            watches.append(_watch(rule.selector, kind, slot, rule))
    return _scope(*watches)


def _all_watches(scope: _Scope) -> list[_Watch]:
    return [x for w in scope.watches for x in (w, *_all_watches(w.opens))]


def compile_spec(spec: ExtractionSpec, reads: Optional[Reads] = None) -> Program:
    """Resolve ``spec`` once, restricted to the rules ``reads`` names (all
    of them when None); the result is what :func:`extract` runs."""
    scope = _compile_rules(spec.rules, reads)
    watches = _all_watches(scope)
    # Per selector, one string the attribute text of a matching start tag must
    # contain: the [attr=value] value, else a class, else "" (a tag-only
    # selector rules nothing out).  The value, not the shared class, lets the
    # elements of rules left out of ``reads`` fail it.  "&": a character
    # reference can spell any.
    needles = {"&", _BOUNDARY_CLASS}
    needles.update(w.key[1] if w.key else min(w.classes, default="") for w in watches)
    candidate = re.compile("|".join(map(re.escape, sorted(needles))))
    own_text = any(w.kind == _OWN for w in watches)
    return Program(spec.page_scheme, scope, own_text, candidate.search)


# --------------------------------------------------------------------- #
# the scanner: a page's text -> start / end / data events
# (docs/TUTORIAL.md, "Tag soup", is this grammar one construct a line)
# --------------------------------------------------------------------- #

_NAME = r"[a-zA-Z][^\s/>]*"
#: Between a start tag's name and its ``>``: separators, and names with an
#: optional value.  A quote opens a value only directly after ``=`` and runs
#: to its partner or to end of input, so each branch matches wherever it is
#: tried: the repeat stops only at ``>``, ``/>``, end of input or its bound,
#: nothing backtracks, and no character is read twice.  The bound is there
#: because the matcher keeps state per repetition; ``scan`` resumes a longer
#: tag where the pattern stopped.
_ATTRIBUTES = (
    r"""(?:\s+|/(?!>)|[^\s/>][^\s/>=]*"""
    r"""(?:\s*=\s*(?:"[^"]*(?:"|\Z)|'[^']*(?:'|\Z)|[^\s>]*))?){0,128}"""
)
#: One alternative per construct; one of them matches at every position and
#: none can fail once past its first characters, so ``finditer`` reads the
#: page once.  A construct whose ``>`` is missing has run to end of input
#: and is dropped.  White space after markup is skipped, never reported.
_TOKEN = re.compile(
    rf"""([^<]+)                              # 1: text
    |<({_NAME})({_ATTRIBUTES})(/?)(>?)\s*     # 2-5: start tag: name, attributes, /, >
    |</({_NAME})[^>]*(>?)\s*                  # 6-7: end tag: name, >
    |<!--(?s:.*?)(?:-->|\Z)\s*                # comment
    |<[!?/][^>]*>?\s*                         # <!doctype>, <![CDATA[ ]]>, <?pi>, </3>
    |(<)                                      # 8: any other "<" is text
    """,
    re.VERBOSE,
)
_MORE_ATTRIBUTES = re.compile(rf"{_ATTRIBUTES}(/?)(>?)\s*")
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


_Handler = Callable[[str], object]


def scan(
    html: str, start: Callable[[str, str, bool], object], end: _Handler, data: _Handler
) -> None:
    """Call ``start(tag, attribute text, opens)`` (``opens`` is false for
    ``<x/>``), ``end(tag)`` and ``data(decoded text)`` for ``html``'s events
    in document order, tag names lower-cased."""
    pos = 0
    while True:
        for match in _TOKEN.finditer(html, pos):
            kind = match.lastindex
            if kind == 5:
                tag, raw, slash, closed = match.group(2, 3, 4, 5)
                if closed:
                    tag = tag.lower()
                    start(tag, raw, not slash)
                    if tag in _RAW_TEXT and not slash:
                        break
                elif match.end() < len(html):
                    break  # the pattern's bound: the tag goes on
            elif kind == 7:
                tag, closed = match.group(6, 7)
                if closed:
                    end(tag.lower())
            elif kind == 1:
                data(unescape(match.group()))
            elif kind == 8:
                data("<")
        else:
            return
        pos = match.end()
        if not closed:
            while not closed and pos < len(html):
                more = _MORE_ATTRIBUTES.match(html, pos)
                assert more is not None  # every part of it is optional
                pos, (slash, closed) = more.end(), more.groups()
            if not closed:
                return
            tag = tag.lower()
            start(tag, html[match.end(2) : more.start(1)], not slash)
        if tag in _RAW_TEXT and not slash:
            # the element's content, up to its end tag, is one undecoded event
            close = _RAW_TEXT[tag].search(html, pos)
            if close is None:
                return
            data(html[pos : close.start()])
            pos = close.start()


class _Done(Exception):
    """Nothing left on the page can change the tuple: the scan stops."""


class _Run:
    """The state of one :func:`extract` call; ``start`` / ``end`` / ``data``
    are :func:`scan`'s handlers.

    ``_groups`` are the open scopes visible to the next element, each a
    ``(slots, scope)`` pair: the document's, one per open list item (slots =
    that row's values) and one per open list container (slots = its rows,
    scope = its item watch).  ``_open`` is the stack of open elements: the
    bare tag name, or ``(tag, groups to restore, text captures, own-text
    parts)`` for the few elements that matched something or are a boundary.
    The run raises :class:`_Done` once ``_undecided`` (the document's slots
    missing or open) is 0 while ``_groups`` is the document's alone.
    """

    def __init__(self, program: Program) -> None:
        self.slots: list[Any] = [_MISSING] * len(program.scope.watches)
        self._undecided = len(self.slots)
        self._root: list[tuple[list[Any], _Scope]] = [(self.slots, program.scope)]
        self._groups = self._root
        self._open: list[Any] = ["#root"]  # never popped: no tag is named so
        self._open_count: dict[str, int] = {}
        self._parts: list[str] = []  # every data event so far
        self._candidate = program.candidate
        if not program.own_text:
            # nobody asks which element a data event belongs to
            self.data = self._parts.append  # type: ignore[method-assign]

    def start(self, tag: str, raw: str, opens: bool) -> None:
        opens = opens and tag not in VOID_ELEMENTS
        entry: Any = tag
        if self._candidate(raw) is not None:
            # else no selector can match these attributes, and it is no boundary
            entry = self._matched(tag, attributes(raw), opens)
        if opens:
            self._open.append(entry)
            self._open_count[tag] = self._open_count.get(tag, 0) + 1

    def _matched(self, tag: str, values: dict[str, str], opens: bool) -> Any:
        """Fill the slots of the watches this element matches; returns its
        entry for ``_open``."""
        classes: Optional[frozenset[str]] = None
        scopes: list[tuple[list[Any], _Scope]] = []  # opened here
        captures: list[tuple[list[Any], int, list[str], int]] = []
        own: Optional[list[str]] = None
        for slots, scope in self._groups:
            watches = scope[2]
            for name, table in scope[1]:
                found = table.get(values.get(name))
                if found is not None:
                    watches = watches + found if watches else found
            for wanted, among, _key, kind, slot, source, inner, _rule in watches:
                if wanted is not None and wanted != tag:
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
                    row = [_MISSING] * len(inner[0])
                    slots.append(row)
                    scopes.append((row, inner))
                    continue
                elif not opens:
                    slots[slot] = ""
                else:
                    slots[slot] = _OPEN  # decided when the element closes
                    if kind == _TEXT:
                        captures.append((slots, slot, self._parts, len(self._parts)))
                    else:
                        if own is None:
                            own = []
                        captures.append((slots, slot, own, 0))
                    continue
                if slots is self.slots:
                    self._undecided -= 1
        if opens:
            cls = values.get("class", "")
            # substring first: few elements get as far as the split
            boundary = _BOUNDARY_CLASS in cls and _BOUNDARY_CLASS in cls.split()
            if boundary or scopes or captures:
                entry = (tag, self._groups, captures, own)
                # a boundary hides every open scope but those it opens itself
                self._groups = scopes if boundary else self._groups + scopes
                return entry
        if not self._undecided and self._groups is self._root:
            raise _Done
        return tag

    def end(self, tag: str) -> None:
        count = self._open_count
        if not count.get(tag):
            return  # nothing of that name is open: a stray end tag
        stack = self._open
        while True:
            top = stack.pop()
            if top.__class__ is not str:
                top = self._closed(top)
            count[top] -= 1
            if top == tag:
                return

    def data(self, data: str) -> None:
        self._parts.append(data)
        top = self._open[-1]
        if top.__class__ is not str and top[3] is not None:
            top[3].append(data)

    def _closed(self, entry: tuple[str, Any, Any, Any]) -> str:
        """Decide its text captures; restore the scopes visible before it."""
        tag, self._groups, captures, _ = entry
        for slots, slot, parts, start in captures:
            slots[slot] = " ".join(" ".join(parts[start:]).split())
            if slots is self.slots:
                self._undecided -= 1
        if not self._undecided and self._groups is self._root:
            raise _Done
        return tag

    def finish(self) -> None:
        """End of input closes everything."""
        for entry in reversed(self._open):
            if entry.__class__ is not str:
                self._closed(entry)


def _row(scope: _Scope, slots: list[Any]) -> dict[str, Any]:
    """Slots → ``{attr: value}`` in rule order, raising for the first rule
    that failed (depth-first through list items, like a per-rule walk)."""
    row: dict[str, Any] = {}
    for watch in scope.watches:
        rule = watch.rule
        value = slots[watch.slot]
        if isinstance(rule, ListRule):
            if value is _MISSING:
                raise ExtractionError(
                    f"list {rule.attr!r}: no container matches {rule.container}"
                )
            (item,) = watch.opens.watches
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
        if program.scope.watches:  # else nothing on the page is read
            scan(html, run.start, run.end, run.data)
            run.finish()
    except _Done:
        pass
    try:
        return _row(program.scope, run.slots)
    except ExtractionError as exc:
        raise ExtractionError(f"{program.page_scheme}: {exc}") from None
