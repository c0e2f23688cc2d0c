"""Declarative extraction specs: selectors and rules (pure data).

A :class:`Selector` is the element pattern ``tag.class[attr=value]`` (each
part optional), which is all the conventions in
:mod:`repro.wrapper.conventions` need.  An :class:`ExtractionSpec`
describes how to pull one nested tuple out of a page: one rule per ADM
attribute.  Two rule kinds exist:

* :class:`AtomRule` — find one element and read its text, an attribute
  (``href`` for links, ``src`` for images), or its own (non-descendant)
  text.  Optional atoms yield ``None`` when the element is absent.
* :class:`ListRule` — find a container element, iterate its item elements,
  and apply sub-rules inside each item.  List rules nest arbitrarily.

Searches inside list items are *scoped*: they never descend into nested list
containers, so inner lists can reuse attribute names without shadowing
(:data:`LIST_BOUNDARY` below).  :mod:`repro.wrapper.extractor` compiles and
evaluates specs; there is no DOM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.errors import WrapperError

__all__ = ["Selector", "AtomRule", "ListRule", "ExtractionSpec", "LIST_BOUNDARY"]


@dataclass(frozen=True)
class Selector:
    """A ``tag.class[attr=value]`` selector (every component optional).

    >>> sel = Selector.parse("span.attr[data-attr=DName]")
    >>> sel.tag, sorted(sel.classes), sel.attr_equals
    ('span', ['attr'], ('data-attr', 'DName'))
    """

    tag: Optional[str] = None
    classes: frozenset[str] = frozenset()
    attr_equals: Optional[tuple[str, str]] = None  # (attr_name, value)

    @classmethod
    def parse(cls, text: str) -> "Selector":
        text = text.strip()
        if not text:
            raise WrapperError("empty selector")
        attr_equals = None
        if "[" in text:
            head, _, bracket = text.partition("[")
            if not bracket.endswith("]"):
                raise WrapperError(f"unterminated attribute selector in {text!r}")
            inner = bracket[:-1]
            name, sep, value = inner.partition("=")
            if not sep:
                raise WrapperError(f"attribute selector needs '=': {text!r}")
            attr_equals = (name.strip(), value.strip().strip("'\""))
            text = head
        parts = text.split(".")
        tag = parts[0] or None
        classes = frozenset(p for p in parts[1:] if p)
        return cls(tag=tag, classes=classes, attr_equals=attr_equals)

    def __str__(self) -> str:
        text = self.tag or ""
        text += "".join(f".{c}" for c in sorted(self.classes))
        if self.attr_equals:
            text += f"[{self.attr_equals[0]}={self.attr_equals[1]}]"
        return text


#: Elements matching this selector delimit nested scopes: a search sees a
#: boundary element itself but nothing inside it.  Generators mark every
#: list container with this class.
LIST_BOUNDARY = Selector.parse(".attr-list")


@dataclass(frozen=True)
class AtomRule:
    """Extract a mono-valued attribute.

    ``source`` is ``"text"`` (all descendant text), ``"own-text"``, or the
    name of an HTML attribute (``"href"``, ``"src"``).
    """

    attr: str
    selector: Selector
    source: str = "text"
    optional: bool = False


@dataclass(frozen=True)
class ListRule:
    """Extract a multi-valued attribute: container → items → sub-rules."""

    attr: str
    container: Selector
    item: Selector
    rules: Tuple[Union["AtomRule", "ListRule"], ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class ExtractionSpec:
    """All rules needed to wrap one page-scheme's pages."""

    page_scheme: str
    rules: Tuple[Union[AtomRule, ListRule], ...]
