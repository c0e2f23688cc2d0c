"""The memo of one planning call, and the table planning state lives in.

The ~28 plans of a query are a few subtrees recombined, and nodes are
interned (:mod:`repro.algebra.ast`): every answer that is a pure function
of a node is computed once and found again by identity.  A
:class:`PlanMemo` is created by the call that plans (``Planner.plan_expr``
/ ``replan_suffix``, a bare ``CostModel.cost``), passed down, and dropped
when it returns — threads never share one.  What outlives a call lives in
a :class:`Table`: the planner's (its stages' rows), the one a σ's row
keeps of the cores below it, the engine's compiled plans
(:func:`repro.engine.compile.compile_plan`) and an environment's parsed
SQL (:meth:`repro.sites.SiteEnv.sql`).
"""

from __future__ import annotations

import functools
import threading
from typing import Optional

from repro.adm.scheme import WebScheme
from repro.algebra.ast import Expr, Schemas
from repro.algebra.printer import render_node

__all__ = ["PlanMemo", "Table", "per_call"]


class Table:
    """Values of pure functions (*stages*): ``get(stage, node, *args)`` is
    ``stage(node, *args)``, kept under ``node`` and the arguments but the
    last (the call's memo).  A plan node is found by identity; its row
    holds it, which pins the id.  One lock; a ``bound`` keeps that many
    rows per stage, the least recently used going first.  Threads may both
    compute a missing row."""

    __slots__ = ("bound", "_rows", "_lock")

    def __init__(self, bound: Optional[int] = None):
        self.bound = bound
        self._rows: dict = {}  # stage → {key → (node, value)}
        self._lock = threading.Lock()

    def get(self, stage, node, *args):
        rows = self._rows.get(stage)
        if rows is None:  # a method's rows are its function's: none pins `self`
            rows = self._rows.setdefault(getattr(stage, "__func__", stage), {})
        key = (id(node) if isinstance(node, Expr) else node,) + args[:-1]
        found = rows.get(key)
        if found is None:
            found = (node, stage(node, *args))
            if self.bound is None:
                rows[key] = found
        if self.bound is not None:
            with self._lock:
                rows.pop(key, None)
                if len(rows) >= self.bound:
                    del rows[next(iter(rows))]  # the least recently used
                rows[key] = found
        return found[1]

    def rows(self, stage) -> list:
        """The values ``stage`` keeps here, least recently used first."""
        rows = self._rows.get(getattr(stage, "__func__", stage), {})
        return [value for _, value in list(rows.values())]

    def __len__(self) -> int:
        return sum(map(len, list(self._rows.values())))


class PlanMemo:
    __slots__ = (
        "scheme", "stats", "schemas", "estimates", "results", "table", "facts",
        "_keys",
    )

    def __init__(self, scheme: WebScheme, stats=None, table: Optional[Table] = None):
        self.scheme = scheme
        self.stats = stats  #: what rule 4 verifies uniqueness with (None: assumed)
        #: node → output schema, or the error it raises (by identity)
        self.schemas = Schemas(scheme)
        #: (cost model, ``id(node)``) → (node, ``cost._Estimate``): a
        #: cache-aware model prices the same node differently, and a σ
        #: multiplies its selectivities in its own atom order
        self.estimates: dict = {}
        self.results = Table()  #: the :func:`per_call` functions' rows
        #: the stages' rows: the planner's table, or (traced) this call's own
        self.table = self.results if table is None else table
        #: what rules 7 and 3/5 and validation learn of a core: the table of
        #: the σ row above it, or this call's own
        self.facts = self.results
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
        return args[-1].results.get(fn, node, *args)

    return functools.wraps(fn)(wrapper)
