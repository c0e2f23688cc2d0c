"""Relation schemas for nested relations.

A :class:`RelationSchema` is an ordered collection of :class:`Field` values.
Each field is either an *atom* (text, image URL, link, page URL) or a *list*
carrying a sub-schema.  Fields optionally record :class:`Provenance` — the
page-scheme and attribute path they originate from — which the cost model
uses to look up statistics (number of distinct values, repetition factors)
even deep inside an algebraic expression.

Runtime rows are plain dicts keyed by field name; the algebra layer uses
qualified names (``"ProfPage.PName"``) so that joins never clash.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Tuple

from repro.adm.page_scheme import AttrPath
from repro.adm.webtypes import ListType, WebType
from repro.errors import SchemaError

__all__ = ["Provenance", "Field", "RelationSchema"]


@dataclass(frozen=True)
class Provenance:
    """Where a field came from: attribute ``path`` of page-scheme ``scheme``.

    ``scheme`` is the *alias* used in the expression (usually the page-scheme
    name itself); ``base_scheme`` is always the real page-scheme name, so the
    cost model can find statistics even when a page-scheme is navigated twice
    under different aliases.
    """

    scheme: str
    path: AttrPath
    base_scheme: str

    @classmethod
    def of(cls, scheme: str, path: AttrPath | str, base_scheme: Optional[str] = None):
        if isinstance(path, str):
            path = AttrPath.parse(path)
        return cls(scheme=scheme, path=path, base_scheme=base_scheme or scheme)

    def __str__(self) -> str:
        return f"{self.scheme}.{self.path}"


@dataclass(frozen=True)
class Field:
    """A named field of a relation schema.

    ``wtype`` is the ADM web type of the field.  List-typed fields carry the
    sub-schema of their elements in ``elem``.
    """

    name: str
    wtype: WebType
    elem: Optional["RelationSchema"] = None
    provenance: Optional[Provenance] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("field names must be non-empty")
        if self.is_list and self.elem is None:
            raise SchemaError(f"list field {self.name!r} needs an element schema")
        if not self.is_list and self.elem is not None:
            raise SchemaError(
                f"atom field {self.name!r} must not have an element schema"
            )

    @property
    def is_list(self) -> bool:
        return isinstance(self.wtype, ListType)

    def renamed(self, name: str) -> "Field":
        return replace(self, name=name)

    def __str__(self) -> str:
        if self.is_list:
            return f"{self.name}: [{self.elem}]"
        return f"{self.name}: {self.wtype}"


class RelationSchema:
    """An ordered, name-unique collection of fields."""

    def __init__(self, fields: Iterable[Field]):
        self.fields: Tuple[Field, ...] = tuple(fields)
        self._by_name: dict[str, Field] = {}
        for f in self.fields:
            if f.name in self._by_name:
                raise SchemaError(f"duplicate field name {f.name!r}")
            self._by_name[f.name] = f

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"no field {name!r}; have {sorted(self._by_name)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def atom_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields if not f.is_list)

    def list_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields if f.is_list)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #

    def project(self, names: Iterable[str]) -> "RelationSchema":
        """Schema restricted to ``names``, in the order given."""
        return RelationSchema([self.field(n) for n in names])

    def concat(self, other: "RelationSchema") -> "RelationSchema":
        """Schema of a join/product; field names must be disjoint."""
        by_name = {**self._by_name, **other._by_name}
        if len(by_name) != len(self.fields) + len(other.fields):
            clash = set(self._by_name) & set(other._by_name)
            raise SchemaError(f"join field-name clash: {sorted(clash)}")
        joined = RelationSchema(())  # both sides are name-unique already
        joined.fields, joined._by_name = self.fields + other.fields, by_name
        return joined

    def drop(self, name: str) -> "RelationSchema":
        self.field(name)  # raise if missing
        return RelationSchema([f for f in self.fields if f.name != name])

    def rename(self, mapping: dict[str, str]) -> "RelationSchema":
        """Rename fields according to ``mapping`` (old → new)."""
        for old in mapping:
            self.field(old)  # raise if missing
        return RelationSchema(
            [f.renamed(mapping.get(f.name, f.name)) for f in self.fields]
        )

    def unnest(self, name: str) -> "RelationSchema":
        """Schema after unnesting list field ``name``: the list field is
        replaced (in place) by its element fields."""
        target = self.field(name)
        if not target.is_list:
            raise SchemaError(f"cannot unnest atom field {name!r}")
        assert target.elem is not None
        new_fields: list[Field] = []
        for f in self.fields:
            if f.name == name:
                new_fields.extend(target.elem.fields)
            else:
                new_fields.append(f)
        return RelationSchema(new_fields)

    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RelationSchema) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __str__(self) -> str:
        return ", ".join(str(f) for f in self.fields)

    def __repr__(self) -> str:
        return f"RelationSchema({self})"
