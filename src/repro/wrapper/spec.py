"""Declarative extraction specs.

An :class:`ExtractionSpec` describes how to pull one nested tuple out of a
page: one rule per ADM attribute.  Two rule kinds exist:

* :class:`AtomRule` — find one element and read its text, an attribute
  (``href`` for links, ``src`` for images), or its own (non-descendant)
  text.  Optional atoms yield ``None`` when the element is absent.
* :class:`ListRule` — find a container element, iterate its item elements,
  and apply sub-rules inside each item.  List rules nest arbitrarily.

Searches inside list items are *scoped*: they never descend into nested list
containers, so inner lists can reuse attribute names without shadowing
(:data:`LIST_BOUNDARY` below).  The rules are pure data;
:mod:`repro.wrapper.extractor` compiles and evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

from repro.wrapper.dom import Selector

__all__ = ["AtomRule", "ListRule", "ExtractionSpec", "LIST_BOUNDARY"]

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
