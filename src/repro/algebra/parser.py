"""A Ulixes-style textual syntax for navigational-algebra expressions.

The paper's practical language Ulixes "implements the navigational
algebra"; this parser provides an equivalent text form, resolving short
attribute names against the web scheme as the chain is built::

    ProfListPage . ProfList -> ToProf
        where Rank = 'Full' and DName = 'Computer Science'
        project PName as Name, email

Grammar (keywords case-insensitive; ``∘`` may replace ``.`` and ``→`` may
replace ``->``)::

    expr    := entry step*
    entry   := NAME                                  -- an entry point
    step    := '.' NAME                              -- unnest
             | '->' NAME ['as' NAME]                 -- follow link (alias)
             | 'where' cond ('and' cond)*
             | 'project' col (',' col)*
    cond    := attr '=' STRING
             | attr 'in' '(' STRING (',' STRING)* ')'
             | attr '=' attr
    col     := attr ['as' NAME]
    attr    := NAME ('.' NAME)*                      -- resolved against the
                                                        current schema

Attribute references may be full qualified names (``ProfPage.PName``),
plain leaf names (``PName``), or dotted suffixes (``CourseList.CName``);
a reference must match exactly one attribute of the expression's current
schema or parsing fails with the matching candidates listed.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.adm.scheme import WebScheme
from repro.algebra.ast import EntryPointScan, Expr, Project, Schemas, Select
from repro.algebra.predicates import AttrEq, Atom, Comparison, In, Predicate
from repro.errors import ParseError

__all__ = ["parse_navigation"]

_TOKEN = re.compile(
    r"\s*(?:(?P<string>'(?:[^']|'')*')"
    r"|(?P<arrow>->|→)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9@]*)"
    r"|(?P<punct>[.∘,()=]))"
)

_KEYWORDS = {"where", "and", "project", "as", "in"}


class _Tokens:
    def __init__(self, text: str):
        self.items: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if match is None:
                if text[pos:].strip():
                    raise ParseError(
                        f"cannot tokenize navigation at: "
                        f"{text[pos:pos + 20]!r}"
                    )
                break
            pos = match.end()
            if match.lastgroup == "string":
                self.items.append(
                    ("string", match.group("string")[1:-1].replace("''", "'"))
                )
            elif match.lastgroup == "arrow":
                self.items.append(("punct", "->"))
            elif match.lastgroup == "name":
                name = match.group("name")
                kind = "kw" if name.lower() in _KEYWORDS else "name"
                value = name.lower() if kind == "kw" else name
                self.items.append((kind, value))
            else:
                punct = match.group("punct")
                self.items.append(("punct", "." if punct == "∘" else punct))
        self.pos = 0

    def peek(self) -> Optional[tuple[str, str]]:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> tuple[str, str]:
        item = self.peek()
        if item is None:
            raise ParseError("unexpected end of navigation expression")
        self.pos += 1
        return item

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[str]:
        item = self.peek()
        if item and item[0] == kind and (value is None or item[1] == value):
            self.pos += 1
            return item[1]
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        got = self.next()
        if got[0] != kind or (value is not None and got[1] != value):
            raise ParseError(f"expected {value or kind}, got {got[1]!r}")
        return got[1]


def _resolve(expr: Expr, schemas: Schemas, ref: str) -> str:
    """Resolve a possibly-short attribute reference against the current
    output schema: exact qualified name, or a dotted suffix.

    Link constraints make anchors duplicate page attributes (``PName``
    appears both as ``ProfListPage.ProfList.PName`` and
    ``ProfPage.PName``), so suffix matches are tie-broken toward the
    *shallowest* qualified name — the page attribute, not its anchor copy.
    Remaining ties are errors."""
    schema = schemas.of(expr)
    if ref in schema:
        return ref
    matches = [
        name
        for name in schema.names()
        if name.endswith(f".{ref}")
    ]
    if not matches:
        raise ParseError(
            f"no attribute matches {ref!r}; have {sorted(schema.names())}"
        )
    min_depth = min(name.count(".") for name in matches)
    shallowest = [n for n in matches if n.count(".") == min_depth]
    if len(shallowest) == 1:
        return shallowest[0]
    raise ParseError(
        f"ambiguous attribute {ref!r}: matches {sorted(shallowest)}"
    )


def _scan_attr(tokens: _Tokens) -> tuple[list[str], list[int]]:
    """The segments of a dotted name, and the token position after each."""
    parts = [tokens.expect("name")]
    positions = [tokens.pos]
    while True:
        save = tokens.pos
        if tokens.accept("punct", "."):
            nxt = tokens.peek()
            if nxt and nxt[0] == "name":
                parts.append(tokens.next()[1])
                positions.append(tokens.pos)
                continue
            tokens.pos = save
        return parts, positions


def _parse_attr_resolving(
    tokens: _Tokens, expr: Expr, schemas: Schemas
) -> str:
    """Parse a dotted attribute reference and resolve it, backtracking over
    trailing segments.  Needed because ``.`` is also the unnest operator:
    in ``-> ToDept . ProfList`` the reference is just ``ToDept`` and the
    dot starts the next step."""
    parts, positions = _scan_attr(tokens)
    first_error: Optional[ParseError] = None
    for length in range(len(parts), 0, -1):
        try:
            resolved = _resolve(expr, schemas, ".".join(parts[:length]))
        except ParseError as exc:
            first_error = first_error or exc
            continue
        tokens.pos = positions[length - 1]
        return resolved
    assert first_error is not None
    raise first_error


def parse_navigation(text: str, scheme: WebScheme) -> Expr:
    """Parse a Ulixes-style navigation into a NALG expression."""
    tokens = _Tokens(text)
    schemas = Schemas(scheme)  # every prefix of the chain is typed once
    expr: Expr = EntryPointScan(tokens.expect("name"))
    schemas.of(expr)  # validates the entry point eagerly

    while True:
        item = tokens.peek()
        if item is None:
            break
        kind, value = item
        if kind == "punct" and value == ".":
            tokens.next()
            attr = _parse_attr_resolving(tokens, expr, schemas)
            expr = expr.unnest(attr)
            schemas.of(expr)
        elif kind == "punct" and value == "->":
            tokens.next()
            attr = _parse_attr_resolving(tokens, expr, schemas)
            alias = None
            if tokens.accept("kw", "as"):
                alias = tokens.expect("name")
            expr = expr.follow(attr, alias)
            schemas.of(expr)
        elif kind == "kw" and value == "where":
            tokens.next()
            atoms = [_parse_condition(tokens, expr, schemas)]
            while tokens.accept("kw", "and"):
                atoms.append(_parse_condition(tokens, expr, schemas))
            expr = Select(expr, Predicate(atoms))
        elif kind == "kw" and value == "project":
            tokens.next()
            outputs = [_parse_column(tokens, expr, schemas)]
            while tokens.accept("punct", ","):
                outputs.append(_parse_column(tokens, expr, schemas))
            expr = Project(expr, tuple(outputs))
            schemas.of(expr)
        else:
            raise ParseError(f"unexpected token {value!r}")
    return expr


def _parse_condition(tokens: _Tokens, expr: Expr, schemas: Schemas) -> Atom:
    attr = _parse_attr_resolving(tokens, expr, schemas)
    if tokens.accept("kw", "in"):
        tokens.expect("punct", "(")
        values = [tokens.expect("string")]
        while tokens.accept("punct", ","):
            values.append(tokens.expect("string"))
        tokens.expect("punct", ")")
        return In(attr, tuple(values))
    tokens.expect("punct", "=")
    kind, value = tokens.next()
    if kind == "string":
        return Comparison(attr, value)
    if kind == "name":
        tokens.pos -= 1
        other = _parse_attr_resolving(tokens, expr, schemas)
        return AttrEq(attr, other)
    raise ParseError(f"bad comparison right-hand side {value!r}")


def _parse_column(
    tokens: _Tokens, expr: Expr, schemas: Schemas
) -> tuple[str, str]:
    ref = ".".join(_scan_attr(tokens)[0])
    resolved = _resolve(expr, schemas, ref)
    out = ref.rsplit(".", 1)[-1]
    if tokens.accept("kw", "as"):
        out = tokens.expect("name")
    return (out, resolved)
