"""Automatic extraction specs for conventionally marked-up sites.

The site generators in :mod:`repro.sitegen` emit HTML following a fixed set
of conventions (chosen to look like ordinary hand-written 1990s pages, with
``data-attr`` markers standing in for the visual regularities real wrappers
key on):

* a mono-valued text attribute ``A`` is an element with class ``attr`` and
  ``data-attr="A"`` — its text is the value;
* an image attribute ``A`` is an ``img.attr[data-attr=A]`` — its ``src`` is
  the value;
* a link attribute ``A`` is an ``a.attr[data-attr=A]`` — its ``href`` is
  the reference (the anchor text is an ordinary text attribute extracted
  separately if the scheme declares one);
* a list attribute ``L`` is a ``ul.attr-list[data-attr=L]`` container whose
  items are ``li.item`` elements; fields are extracted inside each item with
  the same rules, without descending into nested list containers.

:func:`spec_for_page_scheme` derives the :class:`ExtractionSpec` for any
page-scheme from its declared types, and :func:`registry_for_scheme` builds
the full :class:`WrapperRegistry` for a web scheme.
"""

from __future__ import annotations

from typing import Union

from repro.adm.page_scheme import PageScheme
from repro.adm.scheme import WebScheme
from repro.adm.webtypes import ImageType, LinkType, ListType, TextType, WebType
from repro.errors import WrapperError
from repro.wrapper.spec import AtomRule, ExtractionSpec, ListRule, Selector
from repro.wrapper.wrapper import PageWrapper, WrapperRegistry

__all__ = ["spec_for_page_scheme", "registry_for_scheme"]


#: atom type -> (tag of its element, where its value is read)
_ATOMS = {TextType: ("", "text"), ImageType: ("img", "src"), LinkType: ("a", "href")}


def _rule_for(name: str, wtype: WebType) -> Union[AtomRule, ListRule]:
    if isinstance(wtype, ListType):
        return ListRule(
            attr=name,
            container=Selector.parse(f"ul.attr-list[data-attr={name}]"),
            item=Selector.parse("li.item"),
            rules=tuple(_rule_for(fname, ftype) for fname, ftype in wtype.fields),
        )
    for atom, (tag, source) in _ATOMS.items():
        if isinstance(wtype, atom):
            selector = Selector.parse(f"{tag}.attr[data-attr={name}]")
            optional = isinstance(wtype, LinkType) and wtype.optional
            return AtomRule(name, selector, source, optional)
    raise WrapperError(f"no extraction convention for type {wtype!r}")


def spec_for_page_scheme(page_scheme: PageScheme) -> ExtractionSpec:
    """Derive the conventional extraction spec for ``page_scheme``."""
    rules = tuple(_rule_for(a.name, a.wtype) for a in page_scheme.attributes)
    return ExtractionSpec(page_scheme=page_scheme.name, rules=rules)


def registry_for_scheme(scheme: WebScheme) -> WrapperRegistry:
    """Build a registry with a conventional wrapper for every page-scheme."""
    registry = WrapperRegistry()
    for page_scheme in scheme.page_schemes.values():
        registry.register(
            PageWrapper(page_scheme, spec_for_page_scheme(page_scheme))
        )
    return registry
