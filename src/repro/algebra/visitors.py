"""Generic tree utilities over NALG expressions.

The optimizer's rewrite driver needs to enumerate every subexpression of a
plan and splice in replacements.  Paths are tuples of child indexes from the
root (``()`` is the root itself).
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.algebra.ast import Expr
from repro.errors import AlgebraError

__all__ = ["children", "replace_child", "walk", "subexpr_at", "replace_at", "leaves"]

Path = Tuple[int, ...]


def children(expr: Expr) -> Tuple[Expr, ...]:
    """The direct subexpressions of ``expr``."""
    return expr.children()


def replace_child(expr: Expr, index: int, new_child: Expr) -> Expr:
    """``expr`` with its ``index``-th child replaced."""
    kids = list(expr.children())
    if not (0 <= index < len(kids)):
        raise AlgebraError(f"{type(expr).__name__} has no child {index}")
    kids[index] = new_child
    return expr.with_children(tuple(kids))


def walk(expr: Expr) -> Iterator[Tuple[Path, Expr]]:
    """Yield ``(path, subexpression)`` pairs, pre-order from the root."""

    def _walk(node: Expr, path: Path) -> Iterator[Tuple[Path, Expr]]:
        yield path, node
        for i, child in enumerate(node.children()):
            yield from _walk(child, path + (i,))

    return _walk(expr, ())


def subexpr_at(expr: Expr, path: Path) -> Expr:
    """The subexpression at ``path``."""
    node = expr
    for index in path:
        kids = node.children()
        if not (0 <= index < len(kids)):
            raise AlgebraError(f"bad path {path!r} at {type(node).__name__}")
        node = kids[index]
    return node


def replace_at(expr: Expr, path: Path, new_node: Expr) -> Expr:
    """``expr`` with the subexpression at ``path`` replaced by ``new_node``."""
    if not path:
        return new_node
    index, rest = path[0], path[1:]
    kids = expr.children()
    if not (0 <= index < len(kids)):
        raise AlgebraError(f"bad path {path!r} at {type(expr).__name__}")
    return replace_child(expr, index, replace_at(kids[index], rest, new_node))


def leaves(expr: Expr) -> list[Expr]:
    """All leaf subexpressions, left to right."""
    kids = expr.children()
    if not kids:
        return [expr]
    return [leaf for kid in kids for leaf in leaves(kid)]
