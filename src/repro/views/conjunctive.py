"""Conjunctive queries over the external view (paper, Section 5).

A conjunctive query names relation occurrences (with aliases), equates
attributes across occurrences, restricts attributes to constants (or to
small value sets, for the Introduction's "last three editions" query), and
projects a head.  Attribute references are written ``alias.attr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import QueryError

__all__ = ["RelOccurrence", "ConjunctiveQuery"]


@dataclass(frozen=True)
class RelOccurrence:
    """One use of an external relation, under an alias."""

    alias: str
    relation: str

    def __str__(self) -> str:
        if self.alias == self.relation:
            return self.relation
        return f"{self.relation} {self.alias}"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """``π_head σ_conditions (occ1 × occ2 × ...)``.

    * ``head`` — ``(output_name, "alias.attr")`` pairs;
    * ``occurrences`` — the relation occurrences;
    * ``equalities`` — ``("alias.attr", "alias.attr")`` join conditions;
    * ``constants`` — ``("alias.attr", value)`` selections;
    * ``memberships`` — ``("alias.attr", (v1, ..., vk))`` IN-selections.
    """

    head: Tuple[Tuple[str, str], ...]
    occurrences: Tuple[RelOccurrence, ...]
    equalities: Tuple[Tuple[str, str], ...] = ()
    constants: Tuple[Tuple[str, str], ...] = ()
    memberships: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.head:
            raise QueryError("a query must project at least one column")
        if not self.occurrences:
            raise QueryError("a query must mention at least one relation")
        aliases = [o.alias for o in self.occurrences]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate aliases: {aliases}")

    def alias_map(self) -> dict:
        return {o.alias: o.relation for o in self.occurrences}

    def refs(self) -> list[str]:
        """Every ``alias.attr`` reference in the query."""
        result = [ref for _, ref in self.head]
        for a, b in self.equalities:
            result.extend((a, b))
        result.extend(ref for ref, _ in self.constants)
        result.extend(ref for ref, _ in self.memberships)
        return result

    def __str__(self) -> str:
        cols = ", ".join(
            ref if out == ref.split(".")[-1] else f"{ref} AS {out}"
            for out, ref in self.head
        )
        froms = ", ".join(str(o) for o in self.occurrences)
        conds = [f"{a} = {b}" for a, b in self.equalities]
        conds += [f"{ref} = {_quote(v)}" for ref, v in self.constants]
        conds += [
            f"{ref} IN ({', '.join(map(_quote, vs))})" for ref, vs in self.memberships
        ]
        where = f" WHERE {' AND '.join(conds)}" if conds else ""
        return f"SELECT {cols} FROM {froms}{where}"


def _quote(value: str) -> str:
    """``value`` as an SQL string literal: quoted, embedded quotes doubled,
    so that ``parse_query(str(query))`` reads ``query`` back."""
    return "'" + str(value).replace("'", "''") + "'"
