"""Columnar batches and whole-column operator kernels.

The row-at-a-time reference semantics (``tests/engine_reference.py``,
:mod:`repro.nested.operations`) move *rows*: every operator walks a list
of dicts, re-keying and re-building them tuple at a time.  All of that
per-tuple work (dict construction in ``qualify_row``, ``row.get``
predicate probes, ``{**row, **target}`` merges, ``canonical_row``
sorting) is pure CPU overhead the paper's cost model never charges for.

This module is the batch half of the executor core
(:mod:`repro.engine.compile` is the plan half): a :class:`ColumnBatch`
pins a :class:`~repro.nested.schema.RelationSchema` and stores one Python
list per field, and the kernels below implement σ/π/unnest/join/
follow-link over whole columns at a time.  Only the *top* level is
columnar — list-valued fields keep their qualified ``list[dict]``
sub-rows as single column values, exactly as a row would hold them — so
conversion to and from row form is loss-free and every kernel is
value-for-value identical to its row counterpart:

* **unnest** repeats the kept columns by each row's sub-row count and
  splices the element fields in place (empty lists drop their row);
* **join** hash-joins on the first ``on`` pair via
  :func:`~repro.nested.relation.canonical_value` (null keys never match)
  and filters the remaining pairs, preserving the row join's
  left-order-then-bucket-order output;
* **follow-link** gathers the child rows whose link resolves and
  concatenates the pre-built target columns (the row
  ``{**row, **target_row}`` merge on disjoint names *is* column
  concatenation);
* **projection dedup** keeps first occurrences by a hashable key
  (:func:`first_occurrences` takes the ``seen`` set as an argument so
  the pipelined executor can dedup across chunks).

``tests/test_columnar.py`` holds the core to the row reference: same
digests, row order, pages, cache counters and operator spans.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence

from repro.nested.relation import Relation, canonical_value
from repro.nested.schema import RelationSchema

__all__ = [
    "ColumnBatch",
    "distinct_links",
    "first_occurrences",
    "follow_batch",
    "join_batches",
    "product_batches",
    "unnest_batch",
]

Row = dict


class ColumnBatch:
    """A pinned schema plus one value list per field, in schema order.

    All columns have equal length (one entry per row).  Atom fields hold
    ``str`` / ``None`` values; list fields hold ``list[dict]`` sub-rows —
    the same values a row dict would hold, stored columnwise.
    """

    __slots__ = ("schema", "columns")

    def __init__(self, schema: RelationSchema, columns: list[list]):
        self.schema = schema
        self.columns = columns

    # ------------------------------------------------------------------ #
    # construction / conversion
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, schema: RelationSchema) -> "ColumnBatch":
        return cls(schema, [[] for _ in schema.fields])

    @classmethod
    def from_rows(
        cls, schema: RelationSchema, rows: Sequence[Row]
    ) -> "ColumnBatch":
        """Pivot row dicts (every schema name present) into columns."""
        return cls(
            schema, [[row[name] for row in rows] for name in schema.names()]
        )

    @classmethod
    def from_tuples(
        cls, schema: RelationSchema, tuples: Iterable[tuple]
    ) -> "ColumnBatch":
        """Pivot value tuples (in schema field order) into columns."""
        columns = [list(column) for column in zip(*tuples)]
        if not columns:  # no tuples at all
            return cls.empty(schema)
        return cls(schema, columns)

    def to_rows(self) -> list[Row]:
        names = self.schema.names()
        return [dict(zip(names, values)) for values in zip(*self.columns)]

    def to_relation(self) -> Relation:
        return Relation(self.schema, self.to_rows())

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def gather(self, indexes: Sequence[int]) -> "ColumnBatch":
        """Rows at ``indexes``, in that order (the columnar row-filter)."""
        return ColumnBatch(
            self.schema,
            [[column[i] for i in indexes] for column in self.columns],
        )

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        return ColumnBatch(
            self.schema, [column[start:stop] for column in self.columns]
        )

    @classmethod
    def concat(
        cls, schema: RelationSchema, batches: Sequence["ColumnBatch"]
    ) -> "ColumnBatch":
        columns: list[list] = [[] for _ in schema.fields]
        for batch in batches:
            for accumulator, column in zip(columns, batch.columns):
                accumulator.extend(column)
        return cls(schema, columns)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return f"ColumnBatch({self.num_rows} rows; {self.schema})"


# --------------------------------------------------------------------- #
# kernels
# --------------------------------------------------------------------- #


def distinct_links(column: Sequence[Optional[str]]) -> list[str]:
    """Distinct non-null link values in first-seen order — the URL list a
    follow-link operator hands to the fetch layer (identical to the
    row reference's per-row walk).  ``dict.fromkeys`` does the
    ordered dedup in C."""
    return [url for url in dict.fromkeys(column) if url is not None]


def first_occurrences(keys: Sequence, seen: set) -> list[int]:
    """Indexes of the first occurrence of each key not yet in ``seen``
    (which is updated in place, enabling cross-chunk dedup)."""
    take: list[int] = []
    for index, key in enumerate(keys):
        if key not in seen:
            seen.add(key)
            take.append(index)
    return take


def unnest_batch(
    batch: ColumnBatch,
    list_index: int,
    elem_names: Sequence[str],
    out_schema: RelationSchema,
    elem_keys: Sequence[str] = (),
) -> ColumnBatch:
    """Unnest the list field at ``list_index``: kept columns repeat per
    sub-row, the element fields splice in at the list field's position,
    and rows with empty lists disappear (standard nested-relation
    unnest, as in :func:`repro.nested.operations.unnest`).

    ``elem_keys`` overrides the dict keys the element values are read
    by: a fused unnest passes the plain leaf names because its producer
    left the list column raw (unqualified sub-tuples, possibly None for
    an absent list)."""
    keys = elem_keys or elem_names
    list_column = batch.columns[list_index]
    counts = [len(subs) if subs else 0 for subs in list_column]
    flat_subs = list(
        itertools.chain.from_iterable(subs for subs in list_column if subs)
    )
    out_columns: list[list] = []
    for index, column in enumerate(batch.columns):
        if index == list_index:
            for key in keys:
                out_columns.append([sub.get(key) for sub in flat_subs])
        else:
            # map(repeat, ...) + chain keeps the per-sub-row repetition
            # of kept values entirely in C
            out_columns.append(
                list(
                    itertools.chain.from_iterable(
                        map(itertools.repeat, column, counts)
                    )
                )
            )
    return ColumnBatch(out_schema, out_columns)


def join_batches(
    left: ColumnBatch,
    right: ColumnBatch,
    first_pair: tuple[int, int],
    rest_pairs: Sequence[tuple[int, int]],
    out_schema: RelationSchema,
) -> ColumnBatch:
    """Equi-join: hash on the first ``on`` pair (canonical values; null
    keys never match), filter the rest, output columns left-then-right.

    Pair indexes are column offsets (left, right).  Output row order is
    the row join's exactly: left rows in order, each expanded by
    its hash bucket in right-row order."""
    left_key_column = left.columns[first_pair[0]]
    right_key_column = right.columns[first_pair[1]]
    buckets: dict[object, list[int]] = {}
    for right_index, value in enumerate(right_key_column):
        key = canonical_value(value)
        if key is not None:
            buckets.setdefault(key, []).append(right_index)
    rest_left = [left.columns[i] for i, _ in rest_pairs]
    rest_right = [right.columns[j] for _, j in rest_pairs]
    left_take: list[int] = []
    right_take: list[int] = []
    for left_index, value in enumerate(left_key_column):
        key = canonical_value(value)
        if key is None:
            continue
        for right_index in buckets.get(key, ()):
            matched = True
            for left_column, right_column in zip(rest_left, rest_right):
                left_value = left_column[left_index]
                if left_value is None or left_value != right_column[right_index]:
                    matched = False
                    break
            if matched:
                left_take.append(left_index)
                right_take.append(right_index)
    columns = [[column[i] for i in left_take] for column in left.columns]
    columns += [[column[i] for i in right_take] for column in right.columns]
    return ColumnBatch(out_schema, columns)


def product_batches(
    left: ColumnBatch, right: ColumnBatch, out_schema: RelationSchema
) -> ColumnBatch:
    """Cartesian product (a join with no ``on`` pairs), left-major order."""
    left_count, right_count = left.num_rows, right.num_rows
    columns = [
        [value for value in column for _ in range(right_count)]
        for column in left.columns
    ]
    columns += [column * left_count for column in right.columns]
    return ColumnBatch(out_schema, columns)


def follow_batch(
    batch: ColumnBatch,
    link_index: int,
    targets: Mapping[str, tuple],
    out_schema: RelationSchema,
) -> ColumnBatch:
    """Merge child rows with their link targets: rows whose link is null
    or dangling (no entry in ``targets``) drop; the matched target value
    tuples (in target-schema order) append as new columns.  Because the
    child and target field names are disjoint, this concatenation is
    value-for-value the row ``{**row, **target_row}`` merge."""
    link_column = batch.columns[link_index]
    # map() resolves every link in C; a null or dangling link (no entry
    # in ``targets``) resolves to None and its row drops
    resolved = list(map(targets.get, link_column))
    take = [
        index
        for index, values in enumerate(resolved)
        if values is not None
    ]
    matched = [resolved[index] for index in take]
    if len(take) == len(link_column):
        # every link resolved: the child columns pass through untouched
        # (batches are read-only once built, so sharing them is safe)
        columns = list(batch.columns)
    else:
        columns = [[column[i] for i in take] for column in batch.columns]
    target_width = len(out_schema) - len(batch.columns)
    if matched:
        columns += [list(values) for values in zip(*matched)]
    else:
        columns += [[] for _ in range(target_width)]
    return ColumnBatch(out_schema, columns)
