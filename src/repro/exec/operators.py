"""Batch-at-a-time physical operators.

The vector counterpart of :mod:`repro.sqlengine.physical`: a small
operator tree the engine selects per query when ``REPRO_EXEC=vector``.
Two node kinds mirror the row engine's split between environment and
record streams:

- :class:`VectorSource` nodes produce :class:`ColumnBatch` streams
  (scan, filter, rename, restrict, sort);
- :class:`VectorHead` nodes turn batches back into the record stream the
  engine returns (project, aggregate, record sort, limit).

Output shaping deliberately reuses the row engine's helpers
(:func:`~repro.sqlengine.physical.aggregate_feeds`, aggregate
substitution, dedup keys) so the two paths cannot drift apart; the
per-row expression interpretation — the hot loop — is what the batch
path replaces.

Work counters match the row operators (a full scan still counts one
``full_scans`` and one ``heap_fetches`` per row) so plan-shape
assertions hold under either engine; ``QueryStats.batches`` counts the
batches that flowed.
"""

from __future__ import annotations

from typing import Any, Iterator, TYPE_CHECKING

from repro.errors import ExecutionError
from repro.exec.batch import DEFAULT_BATCH_SIZE, ColumnBatch
from repro.exec.kernels import Descending
from repro.exec.memory import SpillableGroups, SpillSorter, estimate_record_bytes
from repro.exec.scalar import hashable, merge_group_state, order_key
from repro.sqlengine.ast_nodes import (
    Expression,
    OrderItem,
    SelectItem,
    Star,
)
from repro.sqlengine.physical import (
    ExecutionContext,
    _collect_aggregates,
    aggregate_feeds,
    shape_aggregate_output,
)

if TYPE_CHECKING:  # pragma: no cover - break the exec <-> sqlengine cycle
    from repro.exec.vectorops import VectorEvaluator
from repro.storage.keys import SENTINEL_MISSING


class VectorNode:
    """Base class for vector plan nodes (shared tree printing)."""

    def children(self) -> tuple["VectorNode", ...]:
        return ()

    def describe(self) -> str:
        raise NotImplementedError

    def tree_string(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        lines.extend(child.tree_string(indent + 1) for child in self.children())
        return "\n".join(lines)


class VectorSource(VectorNode):
    """A node producing a stream of column batches."""

    def batches(
        self, ctx: ExecutionContext, evaluator: VectorEvaluator
    ) -> Iterator[ColumnBatch]:
        raise NotImplementedError


class VectorHead(VectorNode):
    """A node producing the final record stream."""

    def rows(
        self, ctx: ExecutionContext, evaluator: VectorEvaluator
    ) -> Iterator[Any]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Batch-producing nodes
# ----------------------------------------------------------------------


class VecScan(VectorSource):
    """Full columnar heap scan.

    ``columns`` is the planner's projection-pushdown hint: the set of
    attributes any expression downstream can touch, or ``None`` when the
    query may need whole records (``*`` / ``SELECT VALUE t``).
    """

    def __init__(
        self,
        table: str,
        alias: str,
        columns: tuple[str, ...] | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self.table = table
        self.alias = alias
        self.columns = columns
        self.batch_size = batch_size

    def batches(self, ctx, evaluator):
        ctx.stats.full_scans += 1
        heap = ctx.catalog.table(self.table).heap
        for batch in heap.scan_batches(
            self.batch_size, alias=self.alias, columns=self.columns
        ):
            ctx.stats.heap_fetches += batch.length
            ctx.stats.batches += 1
            yield batch

    def describe(self) -> str:
        cols = f" [{', '.join(self.columns)}]" if self.columns is not None else ""
        return f"VecScan {self.table} AS {self.alias}{cols}"


class VecFilter(VectorSource):
    def __init__(self, child: VectorSource, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate

    def children(self):
        return (self.child,)

    def batches(self, ctx, evaluator):
        for batch in self.child.batches(ctx, evaluator):
            selected = evaluator.true_indices(
                evaluator.evaluate(self.predicate, batch)
            )
            if not selected:
                continue
            if len(selected) == batch.length:
                yield batch
            else:
                yield batch.take(selected)

    def describe(self) -> str:
        return f"VecFilter {self.predicate}"


class VecRename(VectorSource):
    """The vector counterpart of ``Rebind``: change the binding alias."""

    def __init__(self, child: VectorSource, alias: str) -> None:
        self.child = child
        self.alias = alias

    def children(self):
        return (self.child,)

    def batches(self, ctx, evaluator):
        for batch in self.child.batches(ctx, evaluator):
            yield batch.rename(self.alias)

    def describe(self) -> str:
        return f"VecRename -> {self.alias}"


class VecRestrict(VectorSource):
    def __init__(self, child: VectorSource, columns: tuple[str, ...]) -> None:
        self.child = child
        self.columns = columns

    def children(self):
        return (self.child,)

    def batches(self, ctx, evaluator):
        for batch in self.child.batches(ctx, evaluator):
            yield batch.restrict(self.columns)

    def describe(self) -> str:
        return f"VecRestrict ({', '.join(self.columns)})"


class VecSort(VectorSource):
    """Blocking sort: keys evaluated once per batch, spills under budget.

    Rows cross the spill boundary as ``row_record`` dicts and are rebuilt
    with ``ColumnBatch.from_records`` against the union column list, a
    round trip that preserves the VALID/NULL/MISSING distinction exactly
    — so spilled output is byte-identical to the in-memory sort.
    """

    def __init__(self, child: VectorSource, keys: tuple[OrderItem, ...]) -> None:
        self.child = child
        self.keys = keys

    def children(self):
        return (self.child,)

    def batches(self, ctx, evaluator):
        descending = [key.descending for key in self.keys]
        sorter = SpillSorter(ctx.memory)
        columns: list[str] = []
        seen_columns: set[str] = set()
        alias = ""
        empty = True
        try:
            for batch in self.child.batches(ctx, evaluator):
                empty = False
                alias = batch.alias
                for name in batch.columns:
                    if name not in seen_columns:
                        seen_columns.add(name)
                        columns.append(name)
                key_vectors = [evaluator.evaluate(key.expr, batch) for key in self.keys]
                for i in range(batch.length):
                    decorated = tuple(
                        Descending(k) if desc else k
                        for k, desc in zip(
                            (order_key(vector.item(i), "ORDER BY") for vector in key_vectors),
                            descending,
                        )
                    )
                    sorter.add(decorated, batch.row_record(i))
            if empty:
                return
            out: list[dict[str, Any]] = []
            for record in sorter.sorted_records():
                out.append(record)
                if len(out) >= DEFAULT_BATCH_SIZE:
                    yield ColumnBatch.from_records(
                        out, alias=alias, columns=tuple(columns)
                    )
                    out = []
            if out:
                yield ColumnBatch.from_records(out, alias=alias, columns=tuple(columns))
        finally:
            sorter.close()

    def describe(self) -> str:
        keys = ", ".join(
            f"{key.expr}{' DESC' if key.descending else ''}" for key in self.keys
        )
        return f"VecSort {keys}"


class VecTopK(VectorSource):
    """Bounded sort: batch-evaluated keys feeding a size-k heap."""

    def __init__(
        self, child: VectorSource, keys: tuple[OrderItem, ...], k: int
    ) -> None:
        self.child = child
        self.keys = keys
        self.k = k

    def children(self):
        return (self.child,)

    def batches(self, ctx, evaluator):
        import heapq

        descending = [key.descending for key in self.keys]

        def entries() -> Iterator[tuple[tuple, int, ColumnBatch, int]]:
            position = 0
            for batch in self.child.batches(ctx, evaluator):
                key_vectors = [
                    evaluator.evaluate(key.expr, batch) for key in self.keys
                ]
                for i in range(batch.length):
                    decorated = tuple(
                        Descending(k) if desc else k
                        for k, desc in zip(
                            (order_key(vector.item(i), "ORDER BY") for vector in key_vectors),
                            descending,
                        )
                    )
                    yield (decorated, position, batch, i)
                    position += 1

        # The generator feeds the bounded heap directly, so only the k
        # best rows (and their source batches) stay referenced.
        best = heapq.nsmallest(self.k, entries(), key=lambda t: (t[0], t[1]))
        held = sum(estimate_record_bytes(batch.row_record(i)) for _k, _p, batch, i in best)
        ctx.memory.reserve(held)
        try:
            for _key, _pos, batch, i in best:
                yield batch.take([i])
        finally:
            ctx.memory.release(held)

    def describe(self) -> str:
        keys = ", ".join(
            f"{key.expr}{' DESC' if key.descending else ''}" for key in self.keys
        )
        return f"VecTopK[{self.k}] {keys}"


# ----------------------------------------------------------------------
# Record-producing heads
# ----------------------------------------------------------------------


class VecProject(VectorHead):
    def __init__(
        self,
        child: VectorSource,
        items: tuple[SelectItem, ...],
        select_value: bool,
        distinct: bool = False,
    ) -> None:
        self.child = child
        self.items = items
        self.select_value = select_value
        self.distinct = distinct

    def children(self):
        return (self.child,)

    def rows(self, ctx, evaluator):
        seen: set | None = set() if self.distinct else None
        for batch in self.child.batches(ctx, evaluator):
            for record in self._project_batch(batch, evaluator):
                if seen is not None:
                    key = hashable(record)
                    if key in seen:
                        continue
                    seen.add(key)
                yield record

    def _project_batch(
        self, batch: ColumnBatch, evaluator: VectorEvaluator
    ) -> Iterator[Any]:
        if self.select_value:
            vector = evaluator.evaluate(self.items[0].expr, batch)
            for i in range(batch.length):
                value = vector.item(i)
                yield None if value is SENTINEL_MISSING else value
            return
        # (kind, payload): 'star' expands the whole binding record,
        # 'expr' emits one named value per row.
        shaped: list[tuple[str, Any]] = []
        for item in self.items:
            if isinstance(item.expr, Star):
                qualifier = item.expr.qualifier
                expands = qualifier is None or qualifier == batch.alias
                shaped.append(("star", expands))
            else:
                shaped.append(
                    ("expr", (item.output_name(), evaluator.evaluate(item.expr, batch)))
                )
        for i in range(batch.length):
            record: dict[str, Any] = {}
            for kind, payload in shaped:
                if kind == "star":
                    if payload:
                        record.update(batch.row_record(i))
                    continue
                name, vector = payload
                value = vector.item(i)
                if value is SENTINEL_MISSING:
                    continue  # SQL++: MISSING fields vanish from records
                record[name] = value
            yield record

    def describe(self) -> str:
        head = "VecProjectValue" if self.select_value else "VecProject"
        return f"{head} {', '.join(str(item.expr) for item in self.items)}"


class VecAggregate(VectorHead):
    """Grouped (or scalar) aggregation over batches.

    Aggregate argument expressions are evaluated once per batch; output
    shaping reuses the row engine's aggregate-substitution helper
    against a representative row, so non-aggregate output expressions
    behave identically under both engines.

    A scalar aggregation feeds each aggregate its argument batch-wise, in
    SELECT-list order; a batch failing in two places may name another of
    the two than the row engine does.  A grouped one adds row by row (a
    spill may write a batch's groups out mid-batch) and re-adds a batch
    whose argument fails through the row evaluator, raising the row
    engine's first error: the 4-shard STDDEV rewrite ``SUM(v), COUNT(v),
    SUM(v * v)`` per group over strings fails in ``SUM`` row by row but
    in ``v * v`` batch-wise.
    """

    def __init__(
        self,
        child: VectorSource,
        group_by: tuple[Expression, ...],
        items: tuple[SelectItem, ...],
        select_value: bool,
    ) -> None:
        self.child = child
        self.group_by = group_by
        self.items = items
        self.select_value = select_value
        self._agg_calls = _collect_aggregates(items)

    def children(self):
        return (self.child,)

    def rows(self, ctx, evaluator):
        if self.group_by:
            yield from self._grouped(ctx, evaluator)
        else:
            yield from self._scalar(ctx, evaluator)

    def _scalar(self, ctx, evaluator):
        feeds = aggregate_feeds(self._agg_calls, evaluator.dialect)
        accumulators = [make() for make, _argument in feeds]
        representative: Any = None
        for batch in self.child.batches(ctx, evaluator):
            if representative is None and batch.length:
                representative = {batch.alias: batch.row_record(0)}
            for (_make, argument), accumulator in zip(feeds, accumulators):
                if argument is None:
                    accumulator.add_rows(batch.length)
                else:
                    accumulator.add_many(evaluator.evaluate(argument, batch).to_python())
        results = {
            id(call): accumulator.result()
            for call, accumulator in zip(self._agg_calls, accumulators)
        }
        # SQL: aggregates over an empty input still produce one row.
        yield shape_aggregate_output(
            ctx.evaluator, self.items, self.select_value,
            representative if representative is not None else {}, results,
        )

    def _grouped(self, ctx, evaluator):
        feeds = aggregate_feeds(self._agg_calls, evaluator.dialect)
        groups = SpillableGroups(ctx.memory)
        try:
            for batch in self.child.batches(ctx, evaluator):
                key_vectors = [
                    evaluator.evaluate(expr, batch) for expr in self.group_by
                ]
                arg_vectors = _arguments(evaluator, feeds, batch)
                slots = None if arg_vectors is None else list(enumerate(arg_vectors))
                for i in range(batch.length):
                    key = tuple(order_key(vector.item(i), "GROUP BY") for vector in key_vectors)
                    entry = groups.get(key)
                    if entry is None:
                        representative = {batch.alias: batch.row_record(i)}
                        entry = ([make() for make, _argument in feeds], representative)
                        groups.insert(key, entry, estimate_record_bytes(representative))
                    accumulators = entry[0]
                    if slots is None:
                        _add_row(ctx, feeds, batch, i, accumulators)
                        continue
                    for slot, vector in slots:
                        if vector is None:
                            accumulators[slot].add_rows(1)
                        else:
                            accumulators[slot].add(vector.item(i))
            for accumulators, representative in groups.finalized(merge_group_state):
                results = {
                    id(call): accumulator.result()
                    for call, accumulator in zip(self._agg_calls, accumulators)
                }
                yield shape_aggregate_output(
                    ctx.evaluator, self.items, self.select_value, representative, results
                )
        finally:
            groups.close()

    def describe(self) -> str:
        keys = ", ".join(str(expr) for expr in self.group_by) or "<scalar>"
        return f"VecAggregate[{keys}]"


def _arguments(evaluator, feeds, batch) -> list | None:
    """Each aggregate's argument over *batch* (None for COUNT(*)), or None
    when one fails batch-wise."""
    try:
        return [
            None if argument is None else evaluator.evaluate(argument, batch)
            for _make, argument in feeds
        ]
    except ExecutionError:
        return None


def _add_row(ctx, feeds, batch, i, accumulators) -> None:
    """Row *i* added as the row engine adds it: each argument evaluated
    and added in turn."""
    env = {batch.alias: batch.row_record(i)}
    for (_make, argument), accumulator in zip(feeds, accumulators):
        if argument is None:
            accumulator.add_rows(1)
        else:
            accumulator.add(ctx.evaluator.evaluate(argument, env))


class VecRecordSort(VectorHead):
    """Sort the output record stream; keys computed once per record."""

    def __init__(self, child: VectorHead, keys: tuple[OrderItem, ...]) -> None:
        self.child = child
        self.keys = keys

    def children(self):
        return (self.child,)

    def rows(self, ctx, evaluator):
        row_evaluate = ctx.evaluator.evaluate
        descending = [key.descending for key in self.keys]

        def env_of(record: Any) -> dict[str, Any]:
            return {"t": record if isinstance(record, dict) else {"value": record}}

        sorter = SpillSorter(ctx.memory)
        try:
            for record in self.child.rows(ctx, evaluator):
                env = env_of(record)
                decorated = tuple(
                    Descending(k) if desc else k
                    for k, desc in zip(
                        (
                            order_key(row_evaluate(key.expr, env), "ORDER BY")
                            for key in self.keys
                        ),
                        descending,
                    )
                )
                sorter.add(decorated, record)
            yield from sorter.sorted_records()
        finally:
            sorter.close()

    def describe(self) -> str:
        keys = ", ".join(
            f"{key.expr}{' DESC' if key.descending else ''}" for key in self.keys
        )
        return f"VecRecordSort {keys}"


class VecLimit(VectorHead):
    def __init__(self, child: VectorHead, count: int, offset: int = 0) -> None:
        self.child = child
        self.count = count
        self.offset = offset

    def children(self):
        return (self.child,)

    def rows(self, ctx, evaluator):
        if self.count == 0:
            return
        produced = 0
        skipped = 0
        for record in self.child.rows(ctx, evaluator):
            if skipped < self.offset:
                skipped += 1
                continue
            yield record
            produced += 1
            if self.count >= 0 and produced >= self.count:
                return

    def describe(self) -> str:
        suffix = f" OFFSET {self.offset}" if self.offset else ""
        return f"VecLimit {self.count}{suffix}"


class VectorPlan:
    """A complete vector plan: a head node plus its evaluator dialect."""

    def __init__(self, head: VectorHead, dialect: str) -> None:
        self.head = head
        self.dialect = dialect

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        from repro.exec.vectorops import VectorEvaluator

        evaluator = VectorEvaluator(self.dialect)
        return self.head.rows(ctx, evaluator)

    def tree_string(self) -> str:
        return self.head.tree_string()
