"""Page wrappers: apply an extraction spec and type-check the result.

:class:`PageWrapper` turns one page's HTML into the nested tuple demanded by
its page-scheme: extraction per the spec, link resolution (relative hrefs
are resolved against the page URL), and a structural check that the result
matches the page-scheme's web types.  :class:`WrapperRegistry` keeps one
wrapper per page-scheme and is what the executors carry around.

A :class:`ReadSet` in place of the page-scheme name wraps only the paths it
names (a list field's path reads its list too): the tuple is the full one
restricted to them, and the wrap raises only for them.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union
from urllib.parse import urljoin

from repro.adm.page_scheme import PageScheme, URL_ATTR
from repro.adm.webtypes import LinkType, ListType, WebType
from repro.errors import WrapperError
from repro.wrapper.extractor import Program, Reads, compile_spec, extract
from repro.wrapper.spec import ExtractionSpec

__all__ = ["PageWrapper", "ReadSet", "WrapperRegistry"]

#: Links ``urljoin`` returns as they are, whatever the base: a lower-case
#: scheme, ``//``, an authority, then only characters it never rewrites — no
#: white space or controls (stripped), ``;`` (parameters are re-split),
#: brackets (checked as IPv6) or empty ``?`` / ``#`` (dropped).
_C = r"\w.~%!$&()*+,=:@\-"
_ABSOLUTE = re.compile(
    rf"[a-z][a-z0-9+.-]*://[{_C}]+(?:/[{_C}/]*)?(?:\?[{_C}/?]+)?(?:#[{_C}/?#]+)?",
    re.ASCII,
)


def resolve(base_url: str, link: str) -> str:
    """``urljoin(base_url, link)``, without the work for an absolute link."""
    return link if _ABSOLUTE.fullmatch(link) else urljoin(base_url, link)


class ReadSet(NamedTuple):
    """Passed to :meth:`WrapperRegistry.wrap` for a page-scheme's name:
    ``paths`` are the attribute paths to wrap, ``("CourseList", "CName")``
    for a list's field."""

    page_scheme: str
    paths: Reads


class PageWrapper:
    """Wraps pages of one page-scheme into nested tuples."""

    def __init__(self, page_scheme: PageScheme, spec: ExtractionSpec):
        if spec.page_scheme != page_scheme.name:
            raise WrapperError(
                f"spec is for {spec.page_scheme!r}, not {page_scheme.name!r}"
            )
        self.page_scheme = page_scheme
        self.spec = spec
        self._fields = [(attr.name, attr.wtype) for attr in page_scheme.attributes]
        #: read paths (None: every attribute) → their program, and the paths
        #: with every prefix added (what the program and the coercion test)
        self._programs: dict[Optional[Reads], tuple[Program, Optional[Reads]]] = {}

    def wrap(self, url: str, html: str, reads: Optional[Reads] = None) -> dict:
        """Extract the nested tuple for the page at ``url``: every attribute,
        or the paths in ``reads`` only.

        The returned dict is keyed by *plain* attribute names and includes
        the implicit ``URL`` attribute.  Link values are absolute URLs.
        """
        found = self._programs.get(reads)
        if found is None:
            closed = reads
            if reads is not None:  # a field's path reads its list too
                closed = frozenset(p[:i] for p in reads for i in range(1, len(p) + 1))
            found = (compile_spec(self.spec, closed), closed)
            found = self._programs.setdefault(reads, found)
        program, reads = found
        raw = extract(program, html)
        return {URL_ATTR: url, **self._row((), self._fields, raw, url, reads)}

    def _error(self, path: tuple[str, ...], problem: str) -> WrapperError:
        return WrapperError(f"{self.page_scheme.name}.{'.'.join(path)}: {problem}")

    def _row(self, path, fields, raw: dict, base_url: str, reads) -> dict:
        """The fields ``reads`` names of one tuple: the page's, or a list
        item's at ``path``."""
        row = {}
        for name, wtype in fields:
            here = path + (name,)
            if reads is not None and here not in reads:
                continue
            if name not in raw:
                raise self._error(here, "the spec produced no value")
            row[name] = self._coerce(here, wtype, raw[name], base_url, reads)
        return row

    def _coerce(self, path, wtype: WebType, value, base_url: str, reads):
        if isinstance(wtype, ListType):
            if not isinstance(value, list):
                raise self._error(path, f"expected a list, got {type(value).__name__}")
            fields = wtype.fields
            return [self._row(path, fields, sub, base_url, reads) for sub in value]
        if value is None:
            if isinstance(wtype, LinkType) and not wtype.optional:
                raise self._error(path, "non-optional link is null")
            return None
        if isinstance(value, list):
            raise self._error(path, "expected an atom, got a list")
        if isinstance(wtype, LinkType):
            return resolve(base_url, value)
        return value


class WrapperRegistry:
    """One wrapper per page-scheme; raises for unknown schemes."""

    def __init__(self, wrappers: Optional[dict[str, PageWrapper]] = None):
        self._wrappers: dict[str, PageWrapper] = dict(wrappers or {})

    def register(self, wrapper: PageWrapper) -> None:
        self._wrappers[wrapper.page_scheme.name] = wrapper

    def wrapper(self, page_scheme: str) -> PageWrapper:
        try:
            return self._wrappers[page_scheme]
        except KeyError:
            raise WrapperError(
                f"no wrapper registered for page-scheme {page_scheme!r}"
            ) from None

    def wrap(self, page_scheme: Union[str, ReadSet], url: str, html: str) -> dict:
        """Wrap one page of the given page-scheme; a :class:`ReadSet`
        wraps only the paths it names."""
        if isinstance(page_scheme, ReadSet):
            wrapper = self.wrapper(page_scheme.page_scheme)
            return wrapper.wrap(url, html, page_scheme.paths)
        return self.wrapper(page_scheme).wrap(url, html)

    def __contains__(self, page_scheme: str) -> bool:
        return page_scheme in self._wrappers

    def __len__(self) -> int:
        return len(self._wrappers)
