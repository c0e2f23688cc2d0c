"""The memo of one planning call.

The ~28 plans of a query are a few subtrees recombined, and nodes are
interned (:mod:`repro.algebra.ast`): every answer that is a pure function
of a node is computed once and found again by identity.  A
:class:`PlanMemo` is created by the call that plans (``Planner.plan_expr``
/ ``replan_suffix``, a bare ``CostModel.cost``), passed down, and dropped
when it returns — threads never share one, and nothing in it outlives
the ``PlannerResult``.  The planning state that does lives in the
planner's four tables (results, shapes, join-graph enumerations, σ
pushes): interned plans, and values of pure functions of them, which a σ's
row keeps with :func:`remembered` — never a memo.
"""

from __future__ import annotations

import functools

from repro.adm.scheme import WebScheme
from repro.algebra.ast import Expr, Schemas
from repro.algebra.printer import render_node

__all__ = ["PlanMemo", "per_call"]


class PlanMemo:
    __slots__ = ("scheme", "schemas", "estimates", "results", "_keys")

    def __init__(self, scheme: WebScheme):
        self.scheme = scheme
        #: node → output schema, or the error it raises (by identity)
        self.schemas = Schemas(scheme)
        #: (cost model, ``id(node)``) → (node, ``cost._Estimate``): a
        #: cache-aware model prices the same node differently, and a σ
        #: multiplies its selectivities in its own atom order
        self.estimates: dict = {}
        #: (function, ``id(node)``, other arguments) → (node, result), for
        #: :func:`per_call` functions
        self.results: dict = {}
        #: ``id(node)`` → (node, rendering), full names and compact.  By
        #: identity: two selections with permuted atoms are ``==`` and print
        #: differently.  The entry holds the node, so its id is not reused.
        self._keys: tuple[dict[int, tuple[Expr, str]], ...] = ({}, {})

    def key(self, expr: Expr, compact: bool = False) -> str:
        """``render_expr(expr, compact)`` built from the children's keys —
        what traces and the final tie-break among candidates read."""
        keys = self._keys[compact]
        found = keys.get(id(expr))
        if found is None:
            kids = tuple(self.key(kid, compact) for kid in expr.children())
            found = keys[id(expr)] = (expr, render_node(expr, kids, compact))
        return found[1]


def per_call(fn):
    """Memoize ``fn(node, *args, memo)`` — a pure function of an interned
    node and hashable values — in ``memo.results``: computed once per
    planning call however many plans contain the node, recursive calls
    included.  By identity, like :meth:`PlanMemo.key`: selections with
    permuted atoms are ``==`` and rewrite differently."""

    def wrapper(node, *args):
        return remembered(args[-1].results, fn, node, *args)

    return functools.wraps(fn)(wrapper)


def remembered(table: dict, fn, node: Expr, *args):
    """``fn(node, *args)``, kept in ``table`` under ``(fn, id(node))`` and
    the arguments but the last (the memo) — with ``node``, which pins the
    id.  :func:`per_call` keeps in ``memo.results``.  ``fn`` must be pure:
    threads sharing a table may both compute a missing entry."""
    key = (fn, id(node)) + args[:-1]
    found = table.get(key)
    if found is None:
        found = table[key] = (node, fn(node, *args))
    return found[1]
