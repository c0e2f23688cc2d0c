"""The NALG expression AST.

Nodes are immutable and *hash-consed*: a constructor call returns the one
live object with the fields as written (``Predicate`` atom order included —
the rendering shows it), so the plans of a query share their subtrees.  The
structural hash is computed once, from the children's cached hashes; ``==``
is identity first and field equality as the fallback (selections whose
atoms are permuted are two objects that compare equal, as they always
did): interning is the fast path, never the definition of equality.

Lifetime rule: the weak intern table keeps no node alive, and nothing
derived from a node (schema, rendering, estimate) is stored on it — such
facts live in a memo owned by the call that needs them (:class:`Schemas`,
``repro.optimizer.memo.PlanMemo``) and die with that call, or in a bounded
``memo.Table`` row that holds the node (planner stages, compiled plans).

Every node can compute its *output schema* against a web scheme; all
runtime attribute names are *qualified* — ``alias.Attr`` or
``alias.List.Field`` — so that joins and repeated navigations never clash
(a page-scheme navigated twice gets two aliases).

Node inventory (paper, Section 4):

* :class:`EntryPointScan` — a leaf page-relation whose URL is known;
* :class:`ExternalRelScan` — a leaf naming an external relation (only valid
  before rule 1 replaces it by a default navigation; not computable);
* :class:`Unnest` — the unnest-page operator ``R ∘ A``;
* :class:`FollowLink` — the follow-link operator ``R →L P``;
* :class:`Select`, :class:`Project`, :class:`Join` — the relational core.
"""

from __future__ import annotations

import operator
import threading
import weakref
from typing import ClassVar, Optional, Tuple, Union

from repro.adm.page_scheme import AttrPath, URL_ATTR
from repro.adm.scheme import WebScheme
from repro.adm.webtypes import LinkType, ListType, URL_TYPE, TEXT
from repro.algebra.predicates import Predicate
from repro.errors import AlgebraError, SchemaError
from repro.nested.schema import Field, Provenance, RelationSchema

__all__ = [
    "Expr",
    "EntryPointScan",
    "ExternalRelScan",
    "Select",
    "Project",
    "Join",
    "Unnest",
    "FollowLink",
    "Schemas",
    "page_relation_schema",
]


def _qualified_fields(
    alias: str, base_scheme: str, parent: Optional[AttrPath], attrs
) -> list[Field]:
    """Schema fields for ``(name, web type)`` attributes below ``parent``,
    named ``alias.Path.Field``; list attributes qualify their element
    fields the same way, recursively."""
    fields = []
    for name, wtype in attrs:
        path = parent.child(name) if parent else AttrPath((name,))
        elem = None
        if isinstance(wtype, ListType):
            elem = RelationSchema(
                _qualified_fields(alias, base_scheme, path, wtype.fields)
            )
        fields.append(
            Field(
                name=path.qualified(alias),
                wtype=wtype,
                elem=elem,
                provenance=Provenance(alias, path, base_scheme),
            )
        )
    return fields


def page_relation_schema(
    scheme: WebScheme, page_scheme: str, alias: Optional[str] = None
) -> RelationSchema:
    """The qualified relation schema of a page-scheme's page-relation.
    Under the default alias it is a pure function of the scheme, built once
    and kept on it (one entry per page-scheme); an alias is qualified afresh.
    """
    alias = alias or page_scheme
    kept = scheme.__dict__.setdefault("_page_relation_schemas", {})
    if alias == page_scheme and page_scheme in kept:
        return kept[page_scheme]
    attributes = scheme.page_scheme(page_scheme).attributes
    url = Field(
        name=f"{alias}.{URL_ATTR}",
        wtype=URL_TYPE,
        provenance=Provenance(alias, AttrPath((URL_ATTR,)), page_scheme),
    )
    schema = RelationSchema(
        [url]
        + _qualified_fields(
            alias, page_scheme, None, [(a.name, a.wtype) for a in attributes]
        )
    )
    if alias == page_scheme:
        kept[page_scheme] = schema
    return schema


#: intern key → the one live node with those fields.  Weak values: a node
#: lives exactly as long as something outside the table references it.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


def _intern(cls: type, key: tuple, values: tuple) -> "Expr":
    """The live ``cls`` node with field ``values``, created if there is none.
    ``key`` is the fields *as written*: predicates by atom tuple, children
    by ``id`` (interned already, and kept alive by the node itself, so the
    id cannot be reused while the entry exists)."""
    node = _INTERNED.get(key)
    if node is None:
        with _INTERN_LOCK:  # two racing constructors must agree on one object
            node = _INTERNED.get(key)
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(cls._fields, values):
                    object.__setattr__(node, name, value)
                object.__setattr__(node, "_kids", values[: cls._arity])
                object.__setattr__(node, "_hash", hash((cls,) + values))
                _INTERNED[key] = node
    return node


class Expr:
    """Abstract base of all NALG expressions."""

    __slots__ = ("_hash", "_kids", "__weakref__")
    _fields: ClassVar[Tuple[str, ...]] = ()
    _arity: ClassVar[int] = 0  #: the first ``_arity`` fields are the inputs

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._values() == other._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copies and unpickled plans go back through the constructor
        return type(self), self._values()

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({inner})"

    def children(self) -> Tuple["Expr", ...]:
        return self._kids

    def with_children(self, new_children: Tuple["Expr", ...]) -> "Expr":
        """The same operator over other inputs."""
        if len(new_children) != self._arity:
            raise AlgebraError(f"{type(self).__name__} takes {self._arity} children")
        if all(map(operator.is_, new_children, self._kids)):
            return self
        return type(self)(*new_children, *self._values()[self._arity :])

    def output_schema(self, scheme: WebScheme) -> RelationSchema:
        """The qualified schema of this expression's result."""
        return Schemas(scheme).of(self)

    def _compute_schema(self, schemas: "Schemas") -> RelationSchema:
        raise NotImplementedError

    # convenience constructors for fluent plan building ----------------- #

    def unnest(self, attr: str) -> "Unnest":
        return Unnest(self, attr)

    def follow(self, link_attr: str, alias: Optional[str] = None) -> "FollowLink":
        return FollowLink(self, link_attr, alias)

    def where(self, predicate: Predicate) -> "Select":
        return Select(self, predicate)

    def select_eq(self, attr: str, value: str) -> "Select":
        return Select(self, Predicate.eq(attr, value))

    def project(self, *outputs) -> "Project":
        """``project("PName", ("Name", "ProfPage.PName"))`` — each output is
        either an attribute name (kept as-is) or ``(out_name, in_name)``."""
        pairs = tuple(
            (o, o) if isinstance(o, str) else (o[0], o[1]) for o in outputs
        )
        return Project(self, pairs)

    def join(self, other: "Expr", on) -> "Join":
        """``on`` is a list of ``(left_attr, right_attr)`` pairs."""
        return Join(self, other, tuple(tuple(pair) for pair in on))


class Schemas:
    """Output schemas of the nodes one call looks at (a planning run, an
    execution, a single :meth:`Expr.output_schema`): each node is typed
    once, an ill-typed one keeps the error it raised.  Owned by the call
    and dropped with it.

    Nodes are found by identity, not ``==``: two selections with permuted
    atoms are equal yet fail on different first atoms.  Each entry holds
    its node, so the id cannot be reused while the entry exists."""

    __slots__ = ("scheme", "_memo")

    def __init__(self, scheme: WebScheme):
        self.scheme = scheme
        #: ``id(node)`` → (node, its schema or (error class, args))
        self._memo: dict[int, tuple[Expr, Union[RelationSchema, tuple]]] = {}

    def _typed(self, expr: Expr) -> Union[RelationSchema, tuple]:
        found = self._memo.get(id(expr))
        if found is None:
            try:
                typed: Union[RelationSchema, tuple] = expr._compute_schema(self)
            except (AlgebraError, SchemaError) as exc:
                # kept as data: a stored exception would pin its traceback,
                # and through the frames this memo, in a reference cycle
                typed = (type(exc), exc.args)
            found = self._memo[id(expr)] = (expr, typed)
        return found[1]

    def get(self, expr: Expr) -> Optional[RelationSchema]:
        """The schema of ``expr``, or None when it is ill-typed."""
        typed = self._typed(expr)
        return None if isinstance(typed, tuple) else typed

    def of(self, expr: Expr) -> RelationSchema:
        """The schema of ``expr``; raises what computing it raised."""
        typed = self._typed(expr)
        if isinstance(typed, tuple):
            error, args = typed
            raise error(*args)
        return typed

    def link_type(self, follow: "FollowLink") -> LinkType:
        schema = self.of(follow.child)
        if follow.link_attr not in schema:
            raise AlgebraError(
                f"follow-link references unknown attribute {follow.link_attr!r} "
                f"(have {sorted(schema.names())})"
            )
        wtype = schema.field(follow.link_attr).wtype
        if not isinstance(wtype, LinkType):
            raise AlgebraError(f"{follow.link_attr!r} is not a link attribute")
        return wtype

    def target_alias(self, follow: "FollowLink") -> str:
        return follow.alias or self.link_type(follow).target


class EntryPointScan(Expr):
    """Access an entry-point page-relation through its known URL.

    ``alias`` defaults to the page-scheme name; give an explicit alias when
    the same page-scheme occurs twice in one expression.
    """

    __slots__ = _fields = ("page_scheme", "alias")

    def __new__(cls, page_scheme: str, alias: Optional[str] = None):
        return _intern(cls, (cls, page_scheme, alias), (page_scheme, alias))

    @property
    def name(self) -> str:
        return self.alias or self.page_scheme

    def _compute_schema(self, schemas: Schemas) -> RelationSchema:
        if not schemas.scheme.is_entry_point(self.page_scheme):
            raise AlgebraError(
                f"{self.page_scheme!r} is not an entry point; page-relations "
                "can only be accessed by navigation (paper, Section 3.1)"
            )
        return page_relation_schema(schemas.scheme, self.page_scheme, self.name)


class ExternalRelScan(Expr):
    """A leaf naming an external relation of the relational view.

    Not computable: rule 1 must replace it by one of its default
    navigations before execution.  ``attrs`` are the external relation's
    attribute names; the output schema qualifies them with the occurrence
    ``alias`` (default: the relation name), so that a query may mention the
    same external relation twice.
    """

    __slots__ = _fields = ("name", "attrs", "alias")

    def __new__(
        cls, name: str, attrs: Tuple[str, ...], alias: Optional[str] = None
    ):
        return _intern(cls, (cls, name, attrs, alias), (name, attrs, alias))

    @property
    def qualifier(self) -> str:
        return self.alias or self.name

    def qualified(self, attr: str) -> str:
        if attr not in self.attrs:
            raise AlgebraError(
                f"external relation {self.name!r} has no attribute {attr!r}"
            )
        return f"{self.qualifier}.{attr}"

    def _compute_schema(self, schemas: Schemas) -> RelationSchema:
        return RelationSchema(
            [Field(f"{self.qualifier}.{a}", TEXT) for a in self.attrs]
        )


class Select(Expr):
    """``σ_predicate(child)``."""

    __slots__ = _fields = ("child", "predicate")
    _arity = 1

    def __new__(cls, child: Expr, predicate: Predicate):
        return _intern(
            cls, (cls, id(child), predicate.atoms), (child, predicate)
        )

    def _compute_schema(self, schemas: Schemas) -> RelationSchema:
        schema = schemas.of(self.child)
        for attr in self.predicate.attrs():
            if attr not in schema:
                raise AlgebraError(
                    f"selection references unknown attribute {attr!r} "
                    f"(have {sorted(schema.names())})"
                )
            if schema.field(attr).is_list:
                raise AlgebraError(
                    f"selection on list-valued attribute {attr!r} (unnest first)"
                )
        return schema


class Project(Expr):
    """``π_outputs(child)``: each output is ``(out_name, in_name)``."""

    __slots__ = _fields = ("child", "outputs")
    _arity = 1

    def __new__(cls, child: Expr, outputs: Tuple[Tuple[str, str], ...]):
        if not outputs:
            raise AlgebraError("projection needs at least one output")
        out_names = [o for o, _ in outputs]
        if len(set(out_names)) != len(out_names):
            raise AlgebraError(f"duplicate projection outputs: {out_names}")
        return _intern(cls, (cls, id(child), outputs), (child, outputs))

    def _compute_schema(self, schemas: Schemas) -> RelationSchema:
        schema = schemas.of(self.child)
        fields = []
        for out_name, in_name in self.outputs:
            if in_name not in schema:
                raise AlgebraError(
                    f"projection references unknown attribute {in_name!r} "
                    f"(have {sorted(schema.names())})"
                )
            fields.append(schema.field(in_name).renamed(out_name))
        return RelationSchema(fields)

    def in_names(self) -> Tuple[str, ...]:
        return tuple(i for _, i in self.outputs)


class Join(Expr):
    """``left ⋈_on right`` with ``on`` a tuple of (left_attr, right_attr).

    An empty ``on`` is a cartesian product (a disconnected conjunctive
    query); the rewrite rules leave such joins alone.
    """

    __slots__ = _fields = ("left", "right", "on")
    _arity = 2

    def __new__(cls, left: Expr, right: Expr, on: Tuple[Tuple[str, str], ...]):
        return _intern(
            cls, (cls, id(left), id(right), on), (left, right, on)
        )

    def _compute_schema(self, schemas: Schemas) -> RelationSchema:
        left_schema = schemas.of(self.left)
        right_schema = schemas.of(self.right)
        for lname, rname in self.on:
            if lname not in left_schema:
                raise AlgebraError(
                    f"join references unknown left attribute {lname!r}"
                )
            if rname not in right_schema:
                raise AlgebraError(
                    f"join references unknown right attribute {rname!r}"
                )
        return left_schema.concat(right_schema)


class Unnest(Expr):
    """The unnest-page operator ``child ∘ attr`` (``attr`` qualified)."""

    __slots__ = _fields = ("child", "attr")
    _arity = 1

    def __new__(cls, child: Expr, attr: str):
        return _intern(cls, (cls, id(child), attr), (child, attr))

    def _compute_schema(self, schemas: Schemas) -> RelationSchema:
        schema = schemas.of(self.child)
        if self.attr not in schema:
            raise AlgebraError(
                f"unnest references unknown attribute {self.attr!r} "
                f"(have {sorted(schema.names())})"
            )
        if not schema.field(self.attr).is_list:
            raise AlgebraError(f"cannot unnest mono-valued attribute {self.attr!r}")
        return schema.unnest(self.attr)


class FollowLink(Expr):
    """The follow-link operator ``child →link_attr TargetPage``.

    ``link_attr`` is a qualified link attribute of the child's schema; the
    target page-scheme is determined by the link's type.  The result joins
    each child row with the page its link references (rows whose link is
    null are dropped — they have nothing to navigate to).
    """

    __slots__ = _fields = ("child", "link_attr", "alias")
    _arity = 1

    def __new__(cls, child: Expr, link_attr: str, alias: Optional[str] = None):
        return _intern(
            cls, (cls, id(child), link_attr, alias), (child, link_attr, alias)
        )

    def link_type(self, scheme: WebScheme) -> LinkType:
        return Schemas(scheme).link_type(self)

    def target_scheme(self, scheme: WebScheme) -> str:
        return self.link_type(scheme).target

    def target_alias(self, scheme: WebScheme) -> str:
        return self.alias or self.target_scheme(scheme)

    def target_url_attr(self, scheme: WebScheme) -> str:
        return f"{self.target_alias(scheme)}.{URL_ATTR}"

    def _compute_schema(self, schemas: Schemas) -> RelationSchema:
        target_schema = page_relation_schema(
            schemas.scheme, schemas.link_type(self).target, self.alias
        )
        return schemas.of(self.child).concat(target_schema)
