"""The reference wrapper evaluator: build a DOM, then walk it once per rule.

This is the evaluator ``repro.wrapper`` shipped before the one-pass
extractor (:mod:`repro.wrapper.extractor`) replaced it, moved here unchanged
in behaviour.  It is the *definition* the extractor is tested against
(``test_wrapper_extractor_property.py``: equal raw tuple or equal
:class:`ExtractionError` message on every generated page), the same status
the row operators of :mod:`repro.nested.operations` have for the QA oracle.
It recurses on the page's depth and is an order of magnitude slower per
rule; nothing under ``src/`` imports it.

It stays on :mod:`html.parser`, which ``src/`` no longer imports: the
extractor's token pattern, read as events by
:func:`repro.wrapper.extractor.scan`, is compared with it event by event,
:func:`parser_events` against :func:`scanner_events`.  docs/TUTORIAL.md ("Tag soup") lists where the two
differ on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import Iterator, Optional, Union

from repro.errors import ExtractionError
from repro.wrapper.spec import Selector
from repro.wrapper.extractor import attributes, scan
from repro.wrapper.spec import LIST_BOUNDARY, AtomRule, ExtractionSpec, ListRule

__all__ = [
    "Node", "parse_html", "matches", "extract", "parser_events", "scanner_events",
]  # fmt: skip

#: Elements that never have closing tags.
VOID_ELEMENTS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "source", "track", "wbr"}
)


@dataclass
class Node:
    """An element (or the synthetic ``#root``) of the parsed document."""

    tag: str
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)  # Node or str (text)
    parent: Optional["Node"] = None

    # ------------------------------------------------------------------ #
    # content
    # ------------------------------------------------------------------ #

    @property
    def classes(self) -> frozenset:
        return frozenset((self.attrs.get("class") or "").split())

    def text(self) -> str:
        """All descendant text, whitespace-normalised."""
        parts: list[str] = []

        def walk(node: "Node") -> None:
            for child in node.children:
                if isinstance(child, str):
                    parts.append(child)
                else:
                    walk(child)

        walk(self)
        return " ".join(" ".join(parts).split())

    def own_text(self) -> str:
        """Direct text children only, whitespace-normalised."""
        parts = [c for c in self.children if isinstance(c, str)]
        return " ".join(" ".join(parts).split())

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #

    def element_children(self) -> list["Node"]:
        return [c for c in self.children if isinstance(c, Node)]

    def descendants(self, prune: Optional["Selector"] = None) -> Iterator["Node"]:
        """Depth-first descendants.  When ``prune`` is given, nodes matching
        it are yielded but not descended into (scoped search boundaries)."""
        for child in self.element_children():
            yield child
            if prune is not None and matches(prune, child):
                continue
            yield from child.descendants(prune)

    def find_all(
        self, selector: "Selector", prune: Optional["Selector"] = None
    ) -> list["Node"]:
        """All descendants matching ``selector`` (not descending past
        ``prune`` matches, when given)."""
        return [n for n in self.descendants(prune) if matches(selector, n)]

    def find(
        self, selector: "Selector", prune: Optional["Selector"] = None
    ) -> Optional["Node"]:
        """First descendant matching ``selector`` or None."""
        for node in self.descendants(prune):
            if matches(selector, node):
                return node
        return None

    def __repr__(self) -> str:
        attrs = "".join(f" {k}={v!r}" for k, v in self.attrs.items())
        return f"<{self.tag}{attrs} ({len(self.children)} children)>"


def matches(selector: Selector, node: Node) -> bool:
    if selector.tag is not None and node.tag != selector.tag:
        return False
    if selector.classes and not selector.classes <= node.classes:
        return False
    if selector.attr_equals is not None:
        name, value = selector.attr_equals
        if node.attrs.get(name) != value:
            return False
    return True


class _TreeBuilder(HTMLParser):
    """html.parser handler that assembles the Node tree."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Node("#root")
        self._stack = [self.root]

    def handle_starttag(self, tag: str, attrs) -> None:
        node = Node(tag, dict(attrs), parent=self._stack[-1])
        self._stack[-1].children.append(node)
        if tag not in VOID_ELEMENTS:
            self._stack.append(node)

    def handle_startendtag(self, tag: str, attrs) -> None:
        node = Node(tag, dict(attrs), parent=self._stack[-1])
        self._stack[-1].children.append(node)

    def handle_endtag(self, tag: str) -> None:
        # tolerate unbalanced markup: pop to the nearest matching open tag
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i].tag == tag:
                del self._stack[i:]
                return

    def handle_data(self, data: str) -> None:
        if data.strip():
            self._stack[-1].children.append(data)


def parse_html(html: str) -> Node:
    """Parse an HTML document into a :class:`Node` tree (root is ``#root``)."""
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


class _Events(HTMLParser):
    """html.parser's events as data: ``("start", tag, {attribute: value},
    opens)``, ``("end", tag)``, ``("data", text)``."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.events: list[tuple] = []

    def handle_starttag(self, tag: str, attrs) -> None:
        self.events.append(("start", tag, dict(attrs), True))

    def handle_startendtag(self, tag: str, attrs) -> None:
        self.events.append(("start", tag, dict(attrs), False))

    def handle_endtag(self, tag: str) -> None:
        self.events.append(("end", tag))

    def handle_data(self, data: str) -> None:
        # as every consumer reads it: normalised, and nothing if that is ""
        if data.strip():
            self.events.append(("data", " ".join(data.split())))


def parser_events(html: str) -> list[tuple]:
    """``html`` as :mod:`html.parser` tokenizes it."""
    parser = _Events()
    parser.feed(html)
    parser.close()
    return parser.events


def scanner_events(html: str) -> list[tuple]:
    """``html`` as the extractor's scanner tokenizes it, in
    :func:`parser_events`' shape."""
    sink = _Events()
    scan(
        html,
        lambda tag, raw, opens: sink.events.append(
            ("start", tag, attributes(raw), opens)
        ),
        sink.handle_endtag,
        sink.handle_data,
    )
    return sink.events


def extract(
    rule: Union[AtomRule, ListRule, ExtractionSpec], scope: Node
) -> Union[None, str, list, dict]:
    """Evaluate ``rule`` against ``scope`` (a spec against the document
    root; returns the tuple without the URL, which the caller knows)."""
    if isinstance(rule, ExtractionSpec):
        row = {}
        for sub in rule.rules:
            try:
                row[sub.attr] = extract(sub, scope)
            except ExtractionError as exc:
                raise ExtractionError(f"{rule.page_scheme}: {exc}") from None
        return row
    if isinstance(rule, ListRule):
        # scoped search: do not descend into other list containers, so a
        # same-named list nested inside a sibling attribute cannot shadow
        # this one (the prune still *yields* boundary nodes, so the wanted
        # container itself is found)
        container = scope.find(rule.container, prune=LIST_BOUNDARY)
        if container is None:
            raise ExtractionError(
                f"list {rule.attr!r}: no container matches {rule.container}"
            )
        return [
            {sub.attr: extract(sub, item) for sub in rule.rules}
            for item in container.find_all(rule.item, prune=LIST_BOUNDARY)
        ]
    node = scope.find(rule.selector, prune=LIST_BOUNDARY)
    if node is None:
        if rule.optional:
            return None
        raise ExtractionError(
            f"attribute {rule.attr!r}: no element matches {rule.selector}"
        )
    if rule.source == "text":
        return node.text()
    if rule.source == "own-text":
        return node.own_text()
    value = node.attrs.get(rule.source)
    if value is None:
        if rule.optional:
            return None
        raise ExtractionError(f"attribute {rule.attr!r}: element lacks @{rule.source}")
    return value
