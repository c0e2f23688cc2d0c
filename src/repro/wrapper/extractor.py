"""One pass over the page: extraction specs compiled to a flat program and
evaluated directly over :mod:`html.parser`'s events.

:func:`compile_spec` resolves an :class:`ExtractionSpec` once into an
immutable tree of scopes, each a set of *watches* (one per rule, plus one per
list's item selector) indexed by the ``[attr=value]`` test they make;
:func:`extract` runs it over one page with an explicit stack of open elements
and a short list of open scopes.  No tree is built and nothing recurses on
the page's depth.  The rules it implements (docs/TUTORIAL.md states them for
spec authors; ``tests/wrapper_reference.py`` is the DOM evaluator the
property test compares against):

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
  order, depth-first through list items.

The compiled program is shared by every thread wrapping pages of the
scheme; all run state lives in the per-call :class:`_Run`.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import Any, NamedTuple, Optional, Sequence, Union

from repro.errors import ExtractionError
from repro.wrapper.dom import Selector
from repro.wrapper.spec import LIST_BOUNDARY, AtomRule, ExtractionSpec, ListRule

__all__ = ["Program", "compile_spec", "extract"]

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
_Attrs = list[tuple[str, Optional[str]]]


class _Watch(NamedTuple):
    """One selector a scope waits for."""

    tag: Optional[str]
    classes: frozenset[str]
    kind: int
    slot: int  # index in the scope's slot list (unused by _ITEM)
    source: str  # _ATTR: the HTML attribute to read
    #: the scope a match opens: a list container's one item watch, an
    #: item's rules; empty for atoms
    opens: "_Scope"
    rule: _Rule
    key: Optional[tuple[str, str]]  # the selector's [attr=value]: the scope's index key


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


_NO_SCOPE = _Scope((), (), ())


def _watch(
    selector: Selector, kind: int, slot: int, rule: _Rule, opens: _Scope = _NO_SCOPE
) -> _Watch:
    source = rule.source if isinstance(rule, AtomRule) else ""
    return _Watch(
        selector.tag, selector.classes, kind, slot, source, opens, rule,
        selector.attr_equals,
    )  # fmt: skip


def _scope(watches: Sequence[_Watch]) -> _Scope:
    keyed: dict[str, dict[Optional[str], tuple[_Watch, ...]]] = {}
    for watch in watches:
        if watch.key is not None:
            name, value = watch.key
            table = keyed.setdefault(name, {})
            table[value] = table.get(value, ()) + (watch,)
    unkeyed = tuple(w for w in watches if w.key is None)
    return _Scope(tuple(watches), tuple(keyed.items()), unkeyed)


def _compile_rules(rules: Sequence[_Rule]) -> _Scope:
    watches = []
    for slot, rule in enumerate(rules):
        if isinstance(rule, ListRule):
            item = _watch(rule.item, _ITEM, 0, rule, _compile_rules(rule.rules))
            watches.append(_watch(rule.container, _LIST, slot, rule, _scope([item])))
        else:
            kind = {"text": _TEXT, "own-text": _OWN}.get(rule.source, _ATTR)
            watches.append(_watch(rule.selector, kind, slot, rule))
    return _scope(watches)


def _reads_own_text(scope: _Scope) -> bool:
    return any(w.kind == _OWN or _reads_own_text(w.opens) for w in scope.watches)


def compile_spec(spec: ExtractionSpec) -> Program:
    """Resolve ``spec`` once; the result is what :func:`extract` runs."""
    scope = _compile_rules(spec.rules)
    return Program(spec.page_scheme, scope, _reads_own_text(scope))


class _Run(HTMLParser):
    """The state of one :func:`extract` call.

    ``_groups`` are the open scopes visible to the next element, each a
    ``(slots, scope)`` pair: the document's, one per open list item (slots =
    that row's values) and one per open list container (slots = its rows,
    scope = its item watch).  ``_open`` is the stack of open elements: the
    bare tag name, or ``(tag, groups to restore, text captures, own-text
    parts)`` for the few elements that matched something or are a boundary.
    """

    def __init__(self, program: Program) -> None:
        super().__init__(convert_charrefs=True)
        self._slots: list[Any] = [_MISSING] * len(program.scope.watches)
        self._groups: list[tuple[list[Any], _Scope]] = [(self._slots, program.scope)]
        self._open: list[Any] = ["#root"]  # never popped: no tag is named so
        self._open_count: dict[str, int] = {}
        self._parts: list[str] = []  # every data event so far
        if not program.own_text:
            # nobody asks which element a data event belongs to
            self.handle_data = self._parts.append  # type: ignore[method-assign]

    def updatepos(self, i: int, j: int) -> int:
        # the base class counts newlines here to keep getpos() current;
        # nothing asks for positions, and it is a sixth of the parse
        return j

    def handle_starttag(self, tag: str, attrs: _Attrs, opens: bool = True) -> None:
        values = dict(attrs)  # last duplicate wins
        if opens and tag in VOID_ELEMENTS:
            opens = False
        classes: Optional[frozenset[str]] = None
        scopes: Optional[list[tuple[list[Any], _Scope]]] = None  # opened here
        captures: Optional[list[tuple[list[Any], int, list[str], int]]] = None
        own: Optional[list[str]] = None
        for slots, scope in self._groups:
            watches = scope[2]
            for name, table in scope[1]:
                found = table.get(values.get(name))
                if found is not None:
                    watches = watches + found if watches else found
            for watch in watches:
                wanted = watch[0]
                if wanted is not None and wanted != tag:
                    continue
                kind = watch[2]
                slot = watch[3]
                if kind != _ITEM and slots[slot] is not _MISSING:
                    continue  # first match only
                if watch[1]:
                    if classes is None:
                        classes = frozenset((values.get("class") or "").split())
                    if not watch[1] <= classes:
                        continue
                if kind == _ATTR:
                    slots[slot] = values.get(watch[4])
                elif kind == _TEXT or kind == _OWN:
                    if not opens:
                        slots[slot] = ""
                        continue
                    slots[slot] = _OPEN
                    if captures is None:
                        captures = []
                    if kind == _TEXT:
                        captures.append((slots, slot, self._parts, len(self._parts)))
                    else:
                        if own is None:
                            own = []
                        captures.append((slots, slot, own, 0))
                else:
                    if kind == _LIST:
                        inner: list[Any] = []
                        slots[slot] = inner
                    else:
                        inner = [_MISSING] * len(watch[5][0])
                        slots.append(inner)
                    if scopes is None:
                        scopes = []
                    scopes.append((inner, watch[5]))
        if not opens:
            return
        cls = values.get("class")
        # substring first: few elements get as far as the split
        boundary = (
            cls is not None
            and _BOUNDARY_CLASS in cls
            and _BOUNDARY_CLASS in cls.split()
        )
        if boundary or scopes or captures:
            self._open.append((tag, self._groups, captures, own))
            if boundary:  # hides every open scope but those it opens itself
                self._groups = scopes or []
            elif scopes:
                self._groups = self._groups + scopes
        else:
            self._open.append(tag)
        count = self._open_count
        count[tag] = count.get(tag, 0) + 1

    def handle_startendtag(self, tag: str, attrs: _Attrs) -> None:
        self.handle_starttag(tag, attrs, False)

    def handle_endtag(self, tag: str) -> None:
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

    def handle_data(self, data: str) -> None:
        self._parts.append(data)
        top = self._open[-1]
        if top.__class__ is not str and top[3] is not None:
            top[3].append(data)

    def _closed(self, entry: tuple[str, Any, Any, Any]) -> str:
        tag, self._groups, captures, _ = entry
        for slots, slot, parts, start in captures or ():
            slots[slot] = " ".join(" ".join(parts[start:]).split())
        return tag

    def finish(self) -> list[Any]:
        """End of input closes everything; returns the document's slots."""
        self.close()
        for entry in reversed(self._open):
            if entry.__class__ is not str:
                self._closed(entry)
        return self._slots


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
    run.feed(html)
    slots = run.finish()
    try:
        return _row(program.scope, slots)
    except ExtractionError as exc:
        raise ExtractionError(f"{program.page_scheme}: {exc}") from None
