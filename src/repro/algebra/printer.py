"""Rendering NALG expressions.

Two renderings are provided:

* :func:`render_expr` — the paper's compact infix notation, e.g.
  ``π_{PName,email}(σ_{DName='CS'}(ProfListPage ∘ ProfList →ToProf ProfPage))``.
  It is deterministic and injective enough to serve as the optimizer's
  deduplication key.
* :func:`render_plan_tree` — an ASCII query-plan tree in the spirit of the
  paper's Figures 2–4 (leaves are page-relations, inner nodes operators;
  unnests keep their infix rendering, links appear as upward edges).
"""

from __future__ import annotations

from repro.algebra.ast import (
    EntryPointScan,
    Expr,
    ExternalRelScan,
    FollowLink,
    Join,
    Project,
    Select,
    Unnest,
)
from repro.errors import AlgebraError

__all__ = ["render_expr", "render_node", "render_plan_tree", "render_projection"]


def _short(attr: str) -> str:
    """Last path step of a qualified attribute (for compact display)."""
    return attr.rsplit(".", 1)[-1]


def render_node(
    node: Expr, kids: tuple, compact: bool = False, scheme=None
) -> str:
    """One node's :func:`render_expr` text, given its children's (``kids``):
    a rendering is a pure function of the node and its children's
    renderings, which is what lets a planning run build each one once."""

    def name(attr: str) -> str:
        return _short(attr) if compact else attr

    if isinstance(node, (EntryPointScan, ExternalRelScan)):
        return node.name
    if isinstance(node, Select):
        atoms = str(node.predicate)
        if compact:
            mapping = {a: _short(a) for a in node.predicate.attrs()}
            atoms = str(node.predicate.rename(mapping))
        return f"σ_{{{atoms}}}({kids[0]})"
    if isinstance(node, Project):
        return render_projection(node.outputs, kids[0], compact)
    if isinstance(node, Join):
        cond = ",".join(f"{name(lhs)}={name(rhs)}" for lhs, rhs in node.on)
        return f"({kids[0]} ⋈_{{{cond}}} {kids[1]})"
    if isinstance(node, Unnest):
        return f"{kids[0]} ∘ {name(node.attr)}"
    if isinstance(node, FollowLink):
        target = node.alias
        if target is None and scheme is not None:
            target = node.target_alias(scheme)
        return f"{kids[0]} →{name(node.link_attr)} {target or '?'}"
    raise AlgebraError(f"cannot render {type(node).__name__}")


def render_projection(outputs: tuple, kid: str, compact: bool = False) -> str:
    """:func:`render_node` of ``π_outputs`` over a child rendered ``kid``."""

    def name(attr: str) -> str:
        return _short(attr) if compact else attr

    cols = ",".join(
        name(i) if o == i or o == _short(i) else f"{name(i)} as {o}"
        for o, i in outputs
    )
    return f"π_{{{cols}}}({kid})"


def render_expr(expr: Expr, compact: bool = False, scheme=None) -> str:
    """Paper-style infix rendering.

    ``compact=True`` shortens qualified attribute names to their last step,
    matching the paper's notation; the default keeps full qualified names
    (injective enough for deduplication).  When ``scheme`` is given,
    follow-link operators display their resolved target page-scheme.
    """
    kids = tuple(render_expr(kid, compact, scheme) for kid in expr.children())
    return render_node(expr, kids, compact, scheme)


def render_plan_tree(expr: Expr, scheme=None) -> str:
    """ASCII plan tree (Figures 2–4 style).

    When ``scheme`` is given, follow-link nodes display their resolved
    target page-scheme.
    """

    lines: list[str] = []

    def label(node: Expr) -> str:
        if isinstance(node, EntryPointScan):
            return f"{node.name}  [entry point]"
        if isinstance(node, ExternalRelScan):
            return f"{node.name}  [external relation]"
        if isinstance(node, Select):
            return f"σ {node.predicate}"
        if isinstance(node, Project):
            cols = ", ".join(
                o if o == i else f"{i} as {o}" for o, i in node.outputs
            )
            return f"π {cols}"
        if isinstance(node, Join):
            cond = ", ".join(f"{lhs}={rhs}" for lhs, rhs in node.on)
            return f"⋈ {cond}"
        if isinstance(node, Unnest):
            return f"∘ {node.attr}"
        if isinstance(node, FollowLink):
            target = node.alias
            if scheme is not None:
                target = node.target_alias(scheme)
            return f"→ {node.link_attr}  (to {target or '?'})"
        raise AlgebraError(f"cannot render {type(node).__name__}")

    def go(node: Expr, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└── " if is_last else "├── ")
        lines.append(prefix + connector + label(node))
        child_prefix = prefix if is_root else prefix + ("    " if is_last else "│   ")
        kids = node.children()
        for i, child in enumerate(kids):
            go(child, child_prefix, i == len(kids) - 1, False)

    go(expr, "", True, True)
    return "\n".join(lines)
