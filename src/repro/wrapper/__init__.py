"""HTML wrappers: pages → nested tuples.

The paper *assumes* suitable wrappers exist (Section 3.1, citing Minerva and
EDITOR); here we build them:

* :mod:`repro.wrapper.spec` — declarative extraction specs (rules over
  :class:`Selector` element patterns mapping page regions to attributes;
  pure data);
* :mod:`repro.wrapper.extractor` — compiles a spec once and evaluates it in
  one loop over one linear token pattern (no DOM is built; the DOM
  evaluator survives as the tests' reference, ``tests/wrapper_reference.py``);
* :mod:`repro.wrapper.wrapper` — :class:`PageWrapper` applies a spec to a
  page and yields the nested tuple, or the part a :class:`ReadSet` names;
  :class:`WrapperRegistry` holds one wrapper per page-scheme;
* :mod:`repro.wrapper.conventions` — derives a spec automatically from a
  :class:`~repro.adm.page_scheme.PageScheme` for sites emitted by
  :mod:`repro.sitegen` (hand-written specs remain possible for irregular
  sites).
"""

from repro.wrapper.spec import AtomRule, ListRule, ExtractionSpec, Selector
from repro.wrapper.wrapper import PageWrapper, ReadSet, WrapperRegistry
from repro.wrapper.conventions import spec_for_page_scheme, registry_for_scheme

__all__ = [
    "Selector",
    "AtomRule",
    "ListRule",
    "ExtractionSpec",
    "PageWrapper",
    "ReadSet",
    "WrapperRegistry",
    "spec_for_page_scheme",
    "registry_for_scheme",
]
