"""Selectors: the element patterns extraction specs are written in.

A :class:`Selector` is the subset ``tag.class[attr=value]`` (each part
optional), which is all the conventions in :mod:`repro.wrapper.conventions`
need — hand-written specs for irregular sites combine several selectors and
scoped searches.  Selectors are pure data: :mod:`repro.wrapper.extractor`
compiles them and matches them against its scanner's start-tag events (there
is no DOM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import WrapperError

__all__ = ["Selector"]


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
