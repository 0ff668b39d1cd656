"""Query-aware merging of per-shard partial results.

Given the query that ran on every shard, derive how to combine the shard
outputs into the global answer:

- scalar ``COUNT``/``SUM``/``MIN``/``MAX`` → the per-shard answers fed
  to the query dialect's own accumulator (:mod:`repro.exec.scalar`): a
  count of counts adds rows, SQL's ``SUM`` over all-NULL partials stays
  NULL, MongoDB's ``$min``/``$max`` order mixed types as one node does;
  a scalar aggregate no shard answered (``$group`` over no documents)
  has no row, as on one node;
- ``AVG``/``STDDEV`` → *partial aggregation states*: each shard computes
  sum, count (and sum-of-squares for STDDEV) instead of its local final,
  the coordinator combines the partials and applies the shared finalizer
  (:func:`~repro.exec.scalar.finalize_avg` /
  :func:`~repro.exec.scalar.finalize_std`) — the per-shard query rewrite
  lives in :mod:`repro.cluster.partial`;
- ``GROUP BY`` aggregates → re-group merged records by the key columns,
  combining each aggregate output column by its function (a count of
  counts is a sum), then finalize any partial states per group;
- ``ORDER BY ... LIMIT k`` → k-way merge of the per-shard top-k lists;
- plain record streams → concatenation (with LIMIT truncation).

The engines fold their own AVG/STDDEV accumulators through the same
finalizers over the same exact integer partial sums, so on integer
columns the distributed answer is bit-identical to the single-node one.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.errors import UnsupportedOperationError
from repro.exec.kernels import Descending
from repro.exec.scalar import DIALECTS, accumulator
from repro.sqlengine.ast_nodes import (
    AGGREGATE_FUNCTIONS,
    ColumnRef,
    FuncCall,
    SelectQuery,
)
from repro.storage.keys import index_key


def _combiner(kind: str, dialect: str) -> Callable[[list[Any]], Any]:
    """Fold the per-shard answers of aggregate *kind* (``COUNT``, ``SUM``,
    ``MIN``, ``MAX``) through the dialect's accumulator: a count adds its
    rows, anything else is one more value (NULLs are skipped)."""
    make = accumulator(kind, DIALECTS[dialect])

    def combine(values: list[Any]) -> Any:
        acc = make()
        add = acc.add_rows if kind == "COUNT" else acc.add
        for value in values:
            if value is not None:
                add(value)
        return acc.result()

    return combine


#: Aggregates that distribute via partial states rather than local finals.
_DECOMPOSED = {"AVG": "avg", "STDDEV": "std", "STDDEV_POP": "std"}


@dataclass(frozen=True)
class PartialColumn:
    """One AVG/STDDEV output decomposed into per-shard partial states.

    ``item_index`` is the output's position in the select list (or among
    a ``$group`` stage's accumulators) — the query rewrite in
    :mod:`repro.cluster.partial` uses it to splice the partial
    expressions into the right select item.  ``sum_col``/``count_col``
    (and ``sumsq_col`` for ``std``) name the partial columns each shard
    returns; the coordinator combines them and applies ``finalize``.
    """

    name: str  # final output column
    finalize: str  # 'avg' | 'std'
    item_index: int
    sum_col: str
    count_col: str
    sumsq_col: str = ""


def partial_column_names(index: int) -> tuple[str, str, str]:
    """The (sum, count, sum-of-squares) partial column names for item *index*."""
    return (f"__p{index}_s", f"__p{index}_c", f"__p{index}_ss")


@dataclass
class MergeSpec:
    """How to combine shard outputs for one query."""

    kind: str  # 'scalar_agg' | 'group_agg' | 'ordered_limit' | 'concat'
    select_value: bool = False
    # scalar_agg / group_agg: the key columns (none for scalar_agg) and
    # each aggregate column's combiner
    group_keys: tuple[str, ...] = ()
    columns: dict[str, Callable[[list[Any]], Any]] = field(default_factory=dict)
    # ordered_limit / concat
    order_columns: tuple[tuple[str, bool], ...] = ()  # (column, descending)
    limit: int | None = None
    # partial aggregation: decomposed outputs plus the ordered final
    # column list to rebuild (both empty when no output is decomposed,
    # keeping the merge byte-identical to the pre-partial behaviour).
    partial_outputs: tuple[PartialColumn, ...] = ()
    output_columns: tuple[str, ...] = ()

    @property
    def needs_rewrite(self) -> bool:
        """True when the per-shard query must ship partial aggregates."""
        return bool(self.partial_outputs)


def merge_records(spec: MergeSpec, shard_records: list[list[Any]]) -> list[Any]:
    """Combine per-shard record lists according to *spec*.

    The record-stream kinds (``concat``/``ordered_limit``) go through
    :func:`merge_record_stream`, so even the materialized entry point
    uses the bounded k-way merge rather than a full re-sort.
    """
    if spec.kind in ("scalar_agg", "group_agg"):
        return _merge_aggregates(spec, shard_records)
    return list(merge_record_stream(spec, shard_records))


def _order_key(spec: MergeSpec) -> Callable[[Any], tuple]:
    """Composite sort key for *spec*'s ORDER BY columns.

    Per-direction :class:`~repro.exec.kernels.Descending` wrappers make
    one stable composite-key sort equivalent to the engines' repeated
    stable single-key sorts, so the merge order is byte-identical to
    sorting the concatenation.
    """

    def key_of(record: Any) -> tuple:
        return tuple(
            Descending(index_key(_field(record, column)))
            if descending
            else index_key(_field(record, column))
            for column, descending in spec.order_columns
        )

    return key_of


def merge_record_stream(
    spec: MergeSpec, shard_streams: Iterable[Iterable[Any]]
) -> Iterator[Any]:
    """Merge per-shard record *streams* lazily according to *spec*.

    ``concat`` chains the shard streams in shard order; ``ordered_limit``
    runs a bounded k-way heap merge (``heapq.merge`` holds one record per
    shard), relying on each shard having applied the query's ORDER BY —
    which scatter-gather guarantees because every shard runs the same
    query.  ``heapq.merge`` is stable across its inputs, so ties resolve
    in shard order exactly as a stable sort of the concatenation would.
    A LIMIT stops pulling from the shards once satisfied.  The blocking
    kinds (``scalar_agg``/``group_agg``) need every partial before any
    output exists, so they materialize — the documented fallback.
    """
    if spec.kind in ("scalar_agg", "group_agg"):
        yield from merge_records(spec, [list(stream) for stream in shard_streams])
        return
    if spec.kind == "ordered_limit" and spec.order_columns:
        merged: Iterator[Any] = heapq.merge(*shard_streams, key=_order_key(spec))
    else:
        merged = itertools.chain.from_iterable(shard_streams)
    if spec.limit is not None:
        merged = itertools.islice(merged, spec.limit)
    yield from merged


def _field(record: Any, column: str) -> Any:
    if isinstance(record, dict):
        return record.get(column)
    return record


def _finalize_value(partial: PartialColumn, combined: dict[str, Any]) -> Any:
    """The combined partials as one AVG / STD accumulator's state (every
    dialect finalizes those alike)."""
    state = accumulator(partial.finalize.upper(), DIALECTS["sql"])()
    state.count = combined.get(partial.count_col) or 0
    state.total = combined.get(partial.sum_col) or 0
    state.total_sq = combined.get(partial.sumsq_col) or 0
    return state.result()


def _finalize_record(spec: MergeSpec, combined: dict[str, Any]) -> dict[str, Any]:
    """Rebuild one output record from combined values and partial states."""
    by_name = {partial.name: partial for partial in spec.partial_outputs}
    out: dict[str, Any] = {}
    for name in spec.output_columns:
        partial = by_name.get(name)
        out[name] = _finalize_value(partial, combined) if partial else combined.get(name)
    return out


def _merge_aggregates(spec: MergeSpec, shard_records: list[list[Any]]) -> list[Any]:
    """Re-group the per-shard rows on the key columns (a scalar aggregate is
    one group, or none when no shard answered), combine each aggregate
    column, then finalize any partial states."""
    groups: dict[tuple, tuple[dict[str, Any], dict[str, list[Any]]]] = {}
    for records in shard_records:
        for record in records:
            key = tuple(index_key(_field(record, name)) for name in spec.group_keys)
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = (
                    {name: _field(record, name) for name in spec.group_keys},
                    {name: [] for name in spec.columns},
                )
            for name, partials in entry[1].items():
                partials.append(_field(record, name))
    out = []
    for key_values, partials in groups.values():
        merged = dict(key_values)
        for name, combine in spec.columns.items():
            merged[name] = combine(partials[name])
        out.append(_finalize_record(spec, merged) if spec.partial_outputs else merged)
    if spec.select_value:
        return [next(iter(record.values())) for record in out]
    return out


# ----------------------------------------------------------------------
# Spec derivation: SQL / SQL++
# ----------------------------------------------------------------------


def spec_for_select(ast: SelectQuery) -> MergeSpec:
    """Derive the merge spec from a parsed SQL/SQL++ query."""
    if ast.is_aggregate():
        return _aggregate_spec(ast)
    order_columns = []
    for item in ast.order_by:
        if isinstance(item.expr, ColumnRef):
            order_columns.append((item.expr.name, item.descending))
    return MergeSpec(
        kind="ordered_limit" if order_columns else "concat",
        order_columns=tuple(order_columns),
        limit=ast.limit,
    )


def _decompose(
    index: int,
    name: str,
    out_name: str,
    columns: dict[str, Callable[[list[Any]], Any]],
    dialect: str,
) -> PartialColumn:
    """Register the partial columns for one AVG/STDDEV output."""
    sum_col, count_col, sumsq_col = partial_column_names(index)
    columns[sum_col] = _combiner("SUM", dialect)
    columns[count_col] = _combiner("COUNT", dialect)
    finalize = _DECOMPOSED[name]
    if finalize == "std":
        columns[sumsq_col] = _combiner("SUM", dialect)
    else:
        sumsq_col = ""
    return PartialColumn(out_name, finalize, index, sum_col, count_col, sumsq_col)


def _aggregate_spec(ast: SelectQuery) -> MergeSpec:
    dialect = "sql"  # SQL and SQL++ agree on every aggregate rule
    keys: list[str] = []
    columns: dict[str, Callable[[list[Any]], Any]] = {}
    partial_outputs: list[PartialColumn] = []
    output_columns: list[str] = []
    for index, item in enumerate(ast.items):
        expr, out_name = item.expr, item.output_name()
        output_columns.append(out_name)
        if isinstance(expr, FuncCall) and expr.name.upper() in AGGREGATE_FUNCTIONS:
            name = expr.name.upper()
            if name in _DECOMPOSED:
                partial_outputs.append(_decompose(index, name, out_name, columns, dialect))
            else:
                columns[out_name] = _combiner(name, dialect)
        elif ast.group_by and isinstance(expr, ColumnRef):
            keys.append(out_name)
        else:
            kind = "group output expression" if ast.group_by else "non-aggregate output"
            raise UnsupportedOperationError(f"cannot merge {kind} {expr} across shards")
    return _spec(keys, columns, partial_outputs, output_columns, ast.select_value)


def _spec(
    keys: list[str],
    columns: dict[str, Callable[[list[Any]], Any]],
    partial_outputs: list[PartialColumn],
    output_columns: list[str],
    select_value: bool = False,
) -> MergeSpec:
    return MergeSpec(
        kind="group_agg" if keys else "scalar_agg",
        select_value=select_value,
        group_keys=tuple(keys),
        columns=columns,
        partial_outputs=tuple(partial_outputs),
        output_columns=tuple(output_columns) if partial_outputs else (),
    )


# ----------------------------------------------------------------------
# Spec derivation: MongoDB aggregation pipelines
# ----------------------------------------------------------------------

_MONGO_COMBINED = {"$sum": "SUM", "$max": "MAX", "$min": "MIN"}

_MONGO_DECOMPOSED = {"$avg": "AVG", "$stdDevPop": "STDDEV_POP"}


def spec_for_pipeline(pipeline: list[dict[str, Any]]) -> MergeSpec:
    """Derive the merge spec from an aggregation pipeline."""
    for stage in pipeline:
        if "$lookup" in stage:
            raise UnsupportedOperationError(
                "MongoDB only supports joining unsharded data; $lookup "
                "cannot run against a sharded collection"
            )
    group_stage: dict[str, Any] | None = None
    count_field: str | None = None
    sort_spec: dict[str, int] | None = None
    limit: int | None = None
    for stage in pipeline:
        if "$group" in stage:
            group_stage = stage["$group"]
            sort_spec = None
        if "$count" in stage:
            count_field = str(stage["$count"])
        if "$sort" in stage:
            sort_spec = stage["$sort"]
        if "$limit" in stage:
            limit = int(stage["$limit"])

    if count_field is not None:
        return MergeSpec(kind="scalar_agg", columns={count_field: _combiner("COUNT", "mongo")})
    if group_stage is not None:
        return _mongo_group_spec(group_stage)
    order_columns = tuple(
        (name, direction < 0) for name, direction in (sort_spec or {}).items()
    )
    return MergeSpec(
        kind="ordered_limit" if order_columns else "concat",
        order_columns=order_columns,
        limit=limit,
    )


def _mongo_group_spec(group: dict[str, Any]) -> MergeSpec:
    id_spec = group.get("_id")
    columns: dict[str, Callable[[list[Any]], Any]] = {}
    partial_outputs: list[PartialColumn] = []
    output_columns: list[str] = []
    keys = tuple(id_spec.keys()) if isinstance(id_spec, dict) and id_spec else ()
    output_columns.extend(keys)
    for index, (name, acc) in enumerate(a for a in group.items() if a[0] != "_id"):
        op = next(iter(acc))
        output_columns.append(name)
        if op in _MONGO_DECOMPOSED:
            partial_outputs.append(
                _decompose(index, _MONGO_DECOMPOSED[op], name, columns, "mongo")
            )
            continue
        if op not in _MONGO_COMBINED:
            raise UnsupportedOperationError(f"cannot merge accumulator {op} across shards")
        columns[name] = _combiner(_MONGO_COMBINED[op], "mongo")
    return _spec(list(keys), columns, partial_outputs, output_columns)
