"""The :class:`Relation` container: a schema plus a list of rows.

Rows are plain dicts keyed by field name.  Atom fields hold ``str`` values
(or ``None`` for nulls from optional attributes); list fields hold
``list[dict]`` sub-rows keyed by the element schema's field names.

Relations are *value-like*: operations never mutate their inputs; they
return new relations (possibly sharing row dicts, which callers must treat
as read-only).  Convenience methods delegate to
:mod:`repro.nested.operations`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import SchemaError
from repro.nested.schema import RelationSchema

__all__ = ["Relation", "canonical_value", "canonical_row", "relation_digest"]

Row = dict


def canonical_value(value: object) -> object:
    """Hashable canonical form of a field value (lists become frozensets of
    canonical sub-rows, since the model blurs lists and sets)."""
    if isinstance(value, list):
        return frozenset(canonical_row(sub) for sub in value)
    return value


def canonical_row(row: Row) -> tuple:
    """Hashable canonical form of a row: sorted (name, canonical) pairs."""
    return tuple(sorted((k, canonical_value(v)) for k, v in row.items()))


def _digest_value(value: object) -> tuple:
    if value is None:
        return ("null",)
    if isinstance(value, list):
        return ("list", tuple(sorted(_digest_row(sub) for sub in value)))
    return ("atom", str(value))


def _digest_row(row: Row) -> tuple:
    return tuple((key, _digest_value(row[key])) for key in sorted(row))


def relation_digest(relation: "Relation") -> str:
    """Stable hex digest of a relation's canonical content.

    Set semantics (row order and duplicates are irrelevant, as in
    :meth:`Relation.canonical`), schema-name sensitive, deterministic
    across processes — so digests from two report or journal files can be
    compared directly.  This is the digest the QA differential oracle
    records per cell and the event journal records per request."""
    import hashlib  # loads OpenSSL (3.6 MiB); a plain query never digests

    names = tuple(sorted(relation.schema.names()))
    rows = sorted({_digest_row(row) for row in relation.rows})
    payload = repr((names, rows)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


class Relation:
    """A nested relation: ``schema`` + ``rows``.

    >>> schema = RelationSchema([Field("DName", TEXT)])        # doctest: +SKIP
    >>> r = Relation(schema, [{"DName": "CS"}])                # doctest: +SKIP
    """

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[Row] = (),
        validate: bool = False,
    ):
        self.schema = schema
        self.rows: list[Row] = list(rows)
        if validate:
            self._validate()

    def _validate(self) -> None:
        names = set(self.schema.names())
        for i, row in enumerate(self.rows):
            if set(row) != names:
                missing = names - set(row)
                extra = set(row) - names
                raise SchemaError(
                    f"row {i} does not match schema "
                    f"(missing={sorted(missing)}, extra={sorted(extra)})"
                )
            for field in self.schema:
                value = row[field.name]
                if field.is_list:
                    if not isinstance(value, list):
                        raise SchemaError(
                            f"row {i}: field {field.name!r} should be a list"
                        )
                elif isinstance(value, list):
                    raise SchemaError(
                        f"row {i}: atom field {field.name!r} holds a list"
                    )

    # ------------------------------------------------------------------ #
    # basics
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def is_empty(self) -> bool:
        return not self.rows

    def column(self, name: str) -> list:
        """All values of field ``name``, in row order."""
        self.schema.field(name)
        return [row[name] for row in self.rows]

    def distinct_values(self, name: str) -> set:
        """Distinct non-null values of atom field ``name``."""
        field = self.schema.field(name)
        if field.is_list:
            raise SchemaError(f"distinct_values on list field {name!r}")
        return {row[name] for row in self.rows if row[name] is not None}

    # ------------------------------------------------------------------ #
    # comparison helpers (set semantics — the model blurs lists and sets)
    # ------------------------------------------------------------------ #

    def canonical(self) -> frozenset:
        """Set of canonical rows; two relations with the same canonical set
        hold the same information."""
        return frozenset(canonical_row(row) for row in self.rows)

    def same_contents(self, other: "Relation") -> bool:
        """True when both relations hold the same set of tuples (field names
        must coincide; field order is irrelevant)."""
        if set(self.schema.names()) != set(other.schema.names()):
            return False
        return self.canonical() == other.canonical()

    # ------------------------------------------------------------------ #
    # operation façade (implementations in repro.nested.operations)
    # ------------------------------------------------------------------ #

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        from repro.nested.operations import select

        return select(self, predicate)

    def project(
        self, names: Sequence[str], renames: Optional[dict[str, str]] = None
    ) -> "Relation":
        from repro.nested.operations import project

        return project(self, names, renames)

    def join(
        self,
        other: "Relation",
        on: Sequence[tuple[str, str]],
        predicate: Optional[Callable[[Row, Row], bool]] = None,
    ) -> "Relation":
        from repro.nested.operations import join

        return join(self, other, on, predicate)

    def product(self, other: "Relation") -> "Relation":
        from repro.nested.operations import product

        return product(self, other)

    def unnest(self, name: str) -> "Relation":
        from repro.nested.operations import unnest

        return unnest(self, name)

    def nest(self, names: Sequence[str], into: str) -> "Relation":
        from repro.nested.operations import nest

        return nest(self, names, into)

    def rename(self, mapping: dict[str, str]) -> "Relation":
        from repro.nested.operations import rename

        return rename(self, mapping)

    def distinct(self) -> "Relation":
        from repro.nested.operations import distinct

        return distinct(self)

    def union(self, other: "Relation") -> "Relation":
        from repro.nested.operations import union

        return union(self, other)

    def difference(self, other: "Relation") -> "Relation":
        from repro.nested.operations import difference

        return difference(self, other)

    # ------------------------------------------------------------------ #
    # display
    # ------------------------------------------------------------------ #

    def to_table(self, limit: Optional[int] = None) -> str:
        """ASCII table rendering (nested lists shown as ``<n rows>``)."""
        names = self.schema.names()
        shown = self.rows if limit is None else self.rows[:limit]

        def cell(row: Row, name: str) -> str:
            value = row[name]
            if isinstance(value, list):
                return f"<{len(value)} rows>"
            return "NULL" if value is None else str(value)

        widths = {n: len(n) for n in names}
        rendered = []
        for row in shown:
            cells = {n: cell(row, n) for n in names}
            rendered.append(cells)
            for n in names:
                widths[n] = max(widths[n], len(cells[n]))
        sep = "+" + "+".join("-" * (widths[n] + 2) for n in names) + "+"
        lines = [sep, "|" + "|".join(f" {n:<{widths[n]}} " for n in names) + "|", sep]
        for cells in rendered:
            lines.append(
                "|" + "|".join(f" {cells[n]:<{widths[n]}} " for n in names) + "|"
            )
        lines.append(sep)
        if limit is not None and len(self.rows) > limit:
            lines.append(f"... {len(self.rows) - limit} more rows")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Relation({len(self.rows)} rows; {self.schema})"
