"""Page wrappers: apply an extraction spec and type-check the result.

:class:`PageWrapper` turns one page's HTML into the nested tuple demanded by
its page-scheme: extraction per the spec, link resolution (relative hrefs
are resolved against the page URL), and a structural check that the result
matches the page-scheme's web types.  :class:`WrapperRegistry` keeps one
wrapper per page-scheme and is what the executors carry around.
"""

from __future__ import annotations

import re
from typing import Optional
from urllib.parse import urljoin

from repro.adm.page_scheme import PageScheme, URL_ATTR
from repro.adm.webtypes import LinkType, ListType, WebType
from repro.errors import WrapperError
from repro.wrapper.extractor import compile_spec, extract
from repro.wrapper.spec import ExtractionSpec

__all__ = ["PageWrapper", "WrapperRegistry"]

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


class PageWrapper:
    """Wraps pages of one page-scheme into nested tuples."""

    def __init__(self, page_scheme: PageScheme, spec: ExtractionSpec):
        if spec.page_scheme != page_scheme.name:
            raise WrapperError(
                f"spec is for {spec.page_scheme!r}, not {page_scheme.name!r}"
            )
        self.page_scheme = page_scheme
        self.spec = spec
        self._program = compile_spec(spec)

    def wrap(self, url: str, html: str) -> dict:
        """Extract the nested tuple for the page at ``url``.

        The returned dict is keyed by *plain* attribute names and includes
        the implicit ``URL`` attribute.  Link values are absolute URLs.
        """
        raw = extract(self._program, html)
        row = {URL_ATTR: url}
        for attr in self.page_scheme.attributes:
            if attr.name not in raw:
                raise WrapperError(
                    f"{self.page_scheme.name}: spec produced no value for "
                    f"{attr.name!r}"
                )
            row[attr.name] = self._coerce(attr.name, attr.wtype, raw[attr.name], url)
        return row

    def _error(self, name: str, problem: str) -> WrapperError:
        return WrapperError(f"{self.page_scheme.name}.{name}: {problem}")

    def _coerce(self, name: str, wtype: WebType, value, base_url: str):
        if isinstance(wtype, ListType):
            if not isinstance(value, list):
                raise self._error(name, f"expected a list, got {type(value).__name__}")
            rows = []
            for sub in value:
                row = {}
                for fname, ftype in wtype.fields:
                    if fname not in sub:
                        raise self._error(name, f"item lacks field {fname!r}")
                    row[fname] = self._coerce(
                        f"{name}.{fname}", ftype, sub[fname], base_url
                    )
                rows.append(row)
            return rows
        if value is None:
            if isinstance(wtype, LinkType) and not wtype.optional:
                raise self._error(name, "non-optional link is null")
            return None
        if isinstance(value, list):
            raise self._error(name, "expected an atom, got a list")
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

    def wrap(self, page_scheme: str, url: str, html: str) -> dict:
        """Convenience: wrap one page of the given page-scheme."""
        return self.wrapper(page_scheme).wrap(url, html)

    def __contains__(self, page_scheme: str) -> bool:
        return page_scheme in self._wrappers

    def __len__(self) -> int:
        return len(self._wrappers)
