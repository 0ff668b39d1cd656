"""Physical operators: pull-based iterators over storage.

Every operator implements ``execute(ctx)`` returning a lazy iterator, so a
``LIMIT`` on top of a pipeline stops upstream work as soon as enough rows
are produced — the run-time property that makes PolyFrame's expressions 2
and 10 cheap on every backend.

Operators also record work counters in :class:`~repro.sqlengine.result.QueryStats`
(heap fetches, index entries read, rows scanned), which the tests use to
assert *plan* behaviour — e.g. that an index-only plan touches the heap
zero times, the paper's explanation for PostgreSQL's expression 6/7/13
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ExecutionError, PlanningError
from repro.exec import scalar
from repro.exec.scalar import order_key
from repro.exec.kernels import Descending
from repro.exec.memory import (
    MemoryBudget,
    SpillableGroups,
    SpillSorter,
    estimate_record_bytes,
)
from repro.sqlengine.ast_nodes import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    Expression,
    FuncCall,
    IsAbsent,
    Literal,
    OrderItem,
    SelectItem,
    Star,
    UnaryOp,
)
from repro.sqlengine.expressions import Evaluator
from repro.sqlengine.result import QueryStats
from repro.storage.catalog import Catalog
from repro.storage.keys import SENTINEL_MISSING, index_key


@dataclass
class ExecutionContext:
    """Everything an operator needs at run time.

    ``memory`` is the per-query budget the blocking operators account
    their buffered state against (and spill under); an unlimited default
    keeps peak tracking on without ever triggering a spill.
    """

    catalog: Catalog
    evaluator: Evaluator
    stats: QueryStats
    memory: MemoryBudget = field(default_factory=MemoryBudget)


class PhysicalPlan:
    """Base class for physical operators."""

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        raise NotImplementedError

    def children(self) -> tuple["PhysicalPlan", ...]:
        return ()

    def describe(self) -> str:
        raise NotImplementedError

    def tree_string(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        lines.extend(child.tree_string(indent + 1) for child in self.children())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------


class SeqScan(PhysicalPlan):
    """Full heap scan; binds each record under the alias."""

    def __init__(self, table: str, alias: str) -> None:
        self.table = table
        self.alias = alias

    def execute(self, ctx: ExecutionContext) -> Iterator[dict[str, Any]]:
        ctx.stats.full_scans += 1
        heap = ctx.catalog.table(self.table).heap
        for record in heap.scan_records():
            ctx.stats.heap_fetches += 1
            yield {self.alias: record}

    def describe(self) -> str:
        return f"SeqScan {self.table} AS {self.alias}"


class IndexScan(PhysicalPlan):
    """Range scan over a secondary/primary index, fetching heap records.

    ``reverse=True`` walks the index backwards (PostgreSQL's backward index
    scan); ``limit`` stops after that many heap rows, so an ordered LIMIT
    reads only a handful of index entries.
    """

    def __init__(
        self,
        table: str,
        alias: str,
        index_name: str,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        reverse: bool = False,
        limit: int | None = None,
        skip_absent: bool = False,
    ) -> None:
        self.table = table
        self.alias = alias
        self.index_name = index_name
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.reverse = reverse
        self.limit = limit
        self.skip_absent = skip_absent

    def execute(self, ctx: ExecutionContext) -> Iterator[dict[str, Any]]:
        table = ctx.catalog.table(self.table)
        index = table.indexes[self.index_name]
        low = index_key(self.low) if self.low is not None else None
        high = index_key(self.high) if self.high is not None else None
        if self.skip_absent and low is None:
            # Keys below rank 2 are MISSING/NULL; (2,) lower-bounds all
            # concrete values, so this skips absent entries in one seek.
            low = (2,)
        produced = 0
        for _key, rid in index.tree.scan(
            low,
            high,
            low_inclusive=self.low_inclusive,
            high_inclusive=self.high_inclusive,
            reverse=self.reverse,
        ):
            ctx.stats.index_entries += 1
            record = table.heap.fetch(rid)
            ctx.stats.heap_fetches += 1
            yield {self.alias: record}
            produced += 1
            if self.limit is not None and produced >= self.limit:
                return

    def describe(self) -> str:
        bounds = []
        if self.low is not None:
            bounds.append(f"{'>=' if self.low_inclusive else '>'} {self.low!r}")
        if self.high is not None:
            bounds.append(f"{'<=' if self.high_inclusive else '<'} {self.high!r}")
        direction = " backward" if self.reverse else ""
        limit = f" limit {self.limit}" if self.limit is not None else ""
        cond = f" [{' and '.join(bounds)}]" if bounds else ""
        return f"IndexScan{direction} {self.table}.{self.index_name}{cond}{limit}"


class IndexEqualityScan(PhysicalPlan):
    """Point lookup: all rows whose indexed column equals a constant."""

    def __init__(self, table: str, alias: str, index_name: str, value: Any) -> None:
        self.table = table
        self.alias = alias
        self.index_name = index_name
        self.value = value

    def execute(self, ctx: ExecutionContext) -> Iterator[dict[str, Any]]:
        table = ctx.catalog.table(self.table)
        index = table.indexes[self.index_name]
        for rid in index.tree.search(index_key(self.value)):
            ctx.stats.index_entries += 1
            record = table.heap.fetch(rid)
            ctx.stats.heap_fetches += 1
            yield {self.alias: record}

    def describe(self) -> str:
        return f"IndexEqualityScan {self.table}.{self.index_name} = {self.value!r}"


class IndexAbsentScan(PhysicalPlan):
    """Fetch rows whose indexed column is NULL or MISSING.

    Only valid on indexes that record absent values (PostgreSQL-style); the
    paper's expression-13 finding is that PostgreSQL alone can serve
    ``isna()`` from an index.
    """

    def __init__(self, table: str, alias: str, index_name: str) -> None:
        self.table = table
        self.alias = alias
        self.index_name = index_name

    def execute(self, ctx: ExecutionContext) -> Iterator[dict[str, Any]]:
        table = ctx.catalog.table(self.table)
        index = table.indexes[self.index_name]
        if not index.include_absent:
            raise ExecutionError(
                f"index {self.index_name!r} does not record absent values"
            )
        # Absent keys occupy ranks 0 (MISSING) and 1 (NULL); (2,) bounds them.
        for _key, rid in index.tree.scan(None, (2,), high_inclusive=False):
            ctx.stats.index_entries += 1
            record = table.heap.fetch(rid)
            ctx.stats.heap_fetches += 1
            yield {self.alias: record}

    def describe(self) -> str:
        return f"IndexAbsentScan {self.table}.{self.index_name} IS NULL"


class IndexAbsentCount(PhysicalPlan):
    """Index-only count of NULL/MISSING entries (no heap access)."""

    def __init__(self, table: str, index_name: str, item: SelectItem, select_value: bool) -> None:
        self.table = table
        self.index_name = index_name
        self.item = item
        self.select_value = select_value

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        index = ctx.catalog.table(self.table).indexes[self.index_name]
        count = 0
        for _key, _rid in index.tree.scan(None, (2,), high_inclusive=False):
            ctx.stats.index_entries += 1
            count += 1
        yield _shape_scalar(count, self.item, self.select_value)

    def describe(self) -> str:
        return f"IndexAbsentCount {self.table}.{self.index_name}"


class IndexCount(PhysicalPlan):
    """COUNT(*) by walking an index's leaves — no record fetches.

    This models AsterixDB counting through its primary-key index
    (expression 1), which the paper contrasts with MongoDB/PostgreSQL table
    scans.
    """

    def __init__(self, table: str, index_name: str, item: SelectItem, select_value: bool) -> None:
        self.table = table
        self.index_name = index_name
        self.item = item
        self.select_value = select_value

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        index = ctx.catalog.table(self.table).indexes[self.index_name]
        count = index.tree.count_entries()
        ctx.stats.index_entries += count
        yield _shape_scalar(count, self.item, self.select_value)

    def describe(self) -> str:
        return f"IndexCount {self.table}.{self.index_name}"


class IndexMinMax(PhysicalPlan):
    """Index-only MIN/MAX: one or two B+tree seeks, zero heap fetches.

    Absent keys sort below every concrete value, so MAX is the last key and
    MIN is the first key at or above rank 2.
    """

    def __init__(
        self,
        table: str,
        index_name: str,
        which: str,
        item: SelectItem,
        select_value: bool,
    ) -> None:
        if which not in ("min", "max"):
            raise PlanningError(f"IndexMinMax expects 'min' or 'max', got {which!r}")
        self.table = table
        self.index_name = index_name
        self.which = which
        self.item = item
        self.select_value = select_value

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        index = ctx.catalog.table(self.table).indexes[self.index_name]
        result = None
        if self.which == "max":
            for key, _rid in index.tree.scan(reverse=True):
                ctx.stats.index_entries += 1
                if key[0] >= 2:  # first non-absent from the top
                    result = key[1]
                break
        else:
            for key, _rid in index.tree.scan(low=(2,)):
                ctx.stats.index_entries += 1
                result = key[1]
                break
        yield _shape_scalar(result, self.item, self.select_value)

    def describe(self) -> str:
        return f"IndexMinMax[{self.which}] {self.table}.{self.index_name} (index-only)"


class IndexOnlyJoinCount(PhysicalPlan):
    """Count equi-join matches by merging two indexes — zero heap fetches.

    Models AsterixDB's index-only join plan for expression 12.
    """

    def __init__(
        self,
        left_table: str,
        left_index: str,
        right_table: str,
        right_index: str,
        item: SelectItem,
        select_value: bool,
    ) -> None:
        self.left_table = left_table
        self.left_index = left_index
        self.right_table = right_table
        self.right_index = right_index
        self.item = item
        self.select_value = select_value

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        left = ctx.catalog.table(self.left_table).indexes[self.left_index].tree
        right = ctx.catalog.table(self.right_table).indexes[self.right_index].tree
        count = 0
        left_iter = left.scan(low=(2,))
        right_iter = right.scan(low=(2,))
        left_entry = next(left_iter, None)
        right_entry = next(right_iter, None)
        while left_entry is not None and right_entry is not None:
            ctx.stats.index_entries += 1
            if left_entry[0] < right_entry[0]:
                left_entry = next(left_iter, None)
            elif left_entry[0] > right_entry[0]:
                right_entry = next(right_iter, None)
            else:
                key = left_entry[0]
                left_run = 0
                while left_entry is not None and left_entry[0] == key:
                    left_run += 1
                    left_entry = next(left_iter, None)
                right_run = 0
                while right_entry is not None and right_entry[0] == key:
                    right_run += 1
                    right_entry = next(right_iter, None)
                count += left_run * right_run
        yield _shape_scalar(count, self.item, self.select_value)

    def describe(self) -> str:
        return (
            f"IndexOnlyJoinCount {self.left_table}.{self.left_index} = "
            f"{self.right_table}.{self.right_index}"
        )


# ----------------------------------------------------------------------
# Row-at-a-time operators
# ----------------------------------------------------------------------


class FilterOp(PhysicalPlan):
    def __init__(self, child: PhysicalPlan, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        evaluate = ctx.evaluator.evaluate
        truthy = ctx.evaluator.truthy
        for row in self.child.execute(ctx):
            if truthy(evaluate(self.predicate, row)):
                yield row

    def describe(self) -> str:
        return f"Filter {self.predicate}"


class RebindOp(PhysicalPlan):
    def __init__(self, child: PhysicalPlan, old: str, new: str) -> None:
        self.child = child
        self.old = old
        self.new = new

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        old, new = self.old, self.new
        for row in self.child.execute(ctx):
            out = dict(row)
            out[new] = out.pop(old)
            yield out

    def describe(self) -> str:
        return f"Rebind {self.old} -> {self.new}"


class ColumnRestrictOp(PhysicalPlan):
    def __init__(self, child: PhysicalPlan, alias: str, columns: tuple[str, ...]) -> None:
        self.child = child
        self.alias = alias
        self.columns = columns

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        for row in self.child.execute(ctx):
            record = row[self.alias]
            out = dict(row)
            out[self.alias] = {
                name: record[name] for name in self.columns if name in record
            }
            yield out

    def describe(self) -> str:
        return f"ColumnRestrict {self.alias}({', '.join(self.columns)})"


class DerivedBindOp(PhysicalPlan):
    """Record stream → environment stream under a fresh alias."""

    def __init__(self, child: PhysicalPlan, alias: str) -> None:
        self.child = child
        self.alias = alias

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        alias = self.alias
        for record in self.child.execute(ctx):
            yield {alias: record}

    def describe(self) -> str:
        return f"DerivedBind AS {self.alias}"


class ProjectOp(PhysicalPlan):
    def __init__(
        self,
        child: PhysicalPlan,
        items: tuple[SelectItem, ...],
        select_value: bool,
        distinct: bool = False,
    ) -> None:
        self.child = child
        self.items = items
        self.select_value = select_value
        self.distinct = distinct

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        seen: set | None = set() if self.distinct else None
        for row in self.child.execute(ctx):
            record = project_row(ctx.evaluator, row, self.items, self.select_value)
            if seen is not None:
                key = scalar.hashable(record)
                if key in seen:
                    continue
                seen.add(key)
            yield record

    def describe(self) -> str:
        head = "ProjectValue" if self.select_value else "Project"
        return f"{head} {', '.join(str(item.expr) for item in self.items)}"


class SortOp(PhysicalPlan):
    """Blocking sort on the environment stream; spills runs under budget.

    The in-memory path is a stable decorate-sort-undecorate; the spill
    path writes sorted runs and merges them back on the same decorated
    keys with a sequence tiebreak, so both emit identical row order.
    """

    def __init__(self, child: PhysicalPlan, keys: tuple[OrderItem, ...]) -> None:
        self.child = child
        self.keys = keys

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        evaluate = ctx.evaluator.evaluate

        def key_of(row: Any) -> tuple:
            return tuple(
                Descending(key) if order.descending else key
                for order, key in (
                    (order, order_key(evaluate(order.expr, row), "ORDER BY"))
                    for order in self.keys
                )
            )

        sorter = SpillSorter(ctx.memory)
        try:
            for row in self.child.execute(ctx):
                sorter.add(key_of(row), row)
            yield from sorter.sorted_records()
        finally:
            sorter.close()

    def describe(self) -> str:
        keys = ", ".join(
            f"{key.expr}{' DESC' if key.descending else ''}" for key in self.keys
        )
        return f"Sort {keys}"


class TopKOp(PhysicalPlan):
    """Bounded sort: keep only the first *k* rows of the requested order."""

    def __init__(self, child: PhysicalPlan, keys: tuple[OrderItem, ...], k: int) -> None:
        self.child = child
        self.keys = keys
        self.k = k

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        import heapq

        def sort_key(row: Any) -> tuple:
            parts = []
            for order in self.keys:
                key = order_key(ctx.evaluator.evaluate(order.expr, row), "ORDER BY")
                parts.append(Descending(key) if order.descending else key)
            return tuple(parts)

        decorated = ((sort_key(row), index, row) for index, row in enumerate(self.child.execute(ctx)))
        kept = heapq.nsmallest(self.k, decorated, key=lambda t: (t[0], t[1]))
        # The bounded heap holds at most k rows; account them so the peak
        # reflects the operator's real (already budget-friendly) state.
        held = sum(estimate_record_bytes(row) for _key, _index, row in kept)
        ctx.memory.reserve(held)
        try:
            for _key, _index, row in kept:
                yield row
        finally:
            ctx.memory.release(held)

    def describe(self) -> str:
        keys = ", ".join(
            f"{key.expr}{' DESC' if key.descending else ''}" for key in self.keys
        )
        return f"TopK[{self.k}] {keys}"


class RecordSortOp(PhysicalPlan):
    """Sort a record stream by expressions over its output columns."""

    def __init__(self, child: PhysicalPlan, keys: tuple[OrderItem, ...]) -> None:
        self.child = child
        self.keys = keys

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        evaluate = ctx.evaluator.evaluate

        def env_of(record: Any) -> dict[str, Any]:
            return {"t": record if isinstance(record, dict) else {"value": record}}

        def key_of(record: Any) -> tuple:
            env = env_of(record)
            return tuple(
                Descending(key) if order.descending else key
                for order, key in (
                    (order, order_key(evaluate(order.expr, env), "ORDER BY"))
                    for order in self.keys
                )
            )

        sorter = SpillSorter(ctx.memory)
        try:
            for record in self.child.execute(ctx):
                sorter.add(key_of(record), record)
            yield from sorter.sorted_records()
        finally:
            sorter.close()

    def describe(self) -> str:
        keys = ", ".join(
            f"{key.expr}{' DESC' if key.descending else ''}" for key in self.keys
        )
        return f"RecordSort {keys}"


class LimitOp(PhysicalPlan):
    def __init__(self, child: PhysicalPlan, count: int, offset: int = 0) -> None:
        self.child = child
        self.count = count
        self.offset = offset

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        if self.count == 0:
            return
        produced = 0
        skipped = 0
        for record in self.child.execute(ctx):
            if skipped < self.offset:
                skipped += 1
                continue
            yield record
            produced += 1
            if self.count >= 0 and produced >= self.count:
                return

    def describe(self) -> str:
        suffix = f" OFFSET {self.offset}" if self.offset else ""
        return f"Limit {self.count}{suffix}"


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------


class HashJoin(PhysicalPlan):
    """Build on the right input, probe with the left (equi-join only)."""

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        left_key: Expression,
        right_key: Expression,
    ) -> None:
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        evaluate = ctx.evaluator.evaluate
        table: dict[Any, list[Any]] = {}
        # The build side is accounted but never spilled: a partitioned
        # (Grace) hash join is out of scope, so under a tiny budget the
        # build simply materializes — the documented fallback.
        build_bytes = 0
        for row in self.right.execute(ctx):
            key = evaluate(self.right_key, row)
            if key is None or key is SENTINEL_MISSING:
                continue
            table.setdefault(order_key(key, "JOIN"), []).append(row)
            nbytes = estimate_record_bytes(row)
            build_bytes += nbytes
            ctx.memory.reserve(nbytes)
        try:
            for left_row in self.left.execute(ctx):
                key = evaluate(self.left_key, left_row)
                if key is None or key is SENTINEL_MISSING:
                    continue
                for right_row in table.get(order_key(key, "JOIN"), ()):
                    merged = dict(left_row)
                    merged.update(right_row)
                    yield merged
        finally:
            ctx.memory.release(build_bytes)

    def describe(self) -> str:
        return f"HashJoin {self.left_key} = {self.right_key}"


class IndexNestedLoopJoin(PhysicalPlan):
    """For each outer row, probe the inner table's index and fetch the heap.

    The plan the paper observes for expression 12 on PostgreSQL, Neo4j, and
    MongoDB ("index nested loop joins followed by data scans").
    """

    def __init__(
        self,
        outer: PhysicalPlan,
        inner_table: str,
        inner_alias: str,
        inner_index: str,
        outer_key: Expression,
    ) -> None:
        self.outer = outer
        self.inner_table = inner_table
        self.inner_alias = inner_alias
        self.inner_index = inner_index
        self.outer_key = outer_key

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.outer,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        table = ctx.catalog.table(self.inner_table)
        index = table.indexes[self.inner_index]
        evaluate = ctx.evaluator.evaluate
        for outer_row in self.outer.execute(ctx):
            key = evaluate(self.outer_key, outer_row)
            if key is None or key is SENTINEL_MISSING:
                continue
            for rid in index.tree.search(order_key(key, "JOIN")):
                ctx.stats.index_entries += 1
                record = table.heap.fetch(rid)
                ctx.stats.heap_fetches += 1
                merged = dict(outer_row)
                merged[self.inner_alias] = record
                yield merged

    def describe(self) -> str:
        return (
            f"IndexNestedLoopJoin probe {self.inner_table}.{self.inner_index} "
            f"with {self.outer_key}"
        )


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def aggregate_feeds(
    calls: list[FuncCall], dialect: str
) -> list[tuple[Callable[[], Any], Expression | None]]:
    """``(accumulator factory, argument)`` of each aggregate call, from the
    shared set (``repro.exec.scalar``); COUNT(*) has no argument — it adds rows.
    ``DISTINCT`` wraps the accumulator so each distinct value counts once."""
    feeds = []
    for call in calls:
        name = call.name.upper()
        kind = "STD" if name.startswith("STDDEV") else name
        if (call.star and (kind != "COUNT" or call.distinct)) or (
            not call.star and len(call.args) != 1
        ):
            raise PlanningError(f"{call} takes one argument")
        make = scalar.accumulator(kind, scalar.DIALECTS[dialect], name)
        if call.distinct:
            make = lambda inner=make: scalar.Distinct(inner())  # noqa: E731
        feeds.append((make, None if call.star else call.args[0]))
    return feeds


class HashAggregate(PhysicalPlan):
    """Grouped (or scalar, when ``group_by`` is empty) aggregation."""

    def __init__(
        self,
        child: PhysicalPlan,
        group_by: tuple[Expression, ...],
        items: tuple[SelectItem, ...],
        select_value: bool,
    ) -> None:
        self.child = child
        self.group_by = group_by
        self.items = items
        self.select_value = select_value
        self._agg_calls = _collect_aggregates(items)

    def children(self) -> tuple[PhysicalPlan, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> Iterator[Any]:
        evaluate = ctx.evaluator.evaluate
        feeds = aggregate_feeds(self._agg_calls, ctx.evaluator.dialect)
        makes = [make for make, _argument in feeds]
        arguments = [(slot, argument) for slot, (_make, argument) in enumerate(feeds)]
        groups = SpillableGroups(ctx.memory)
        grouped = bool(self.group_by)
        try:
            for row in self.child.execute(ctx):
                key = tuple(
                    order_key(evaluate(expr, row), "GROUP BY") for expr in self.group_by
                ) if grouped else ()
                entry = groups.get(key)
                if entry is None:
                    entry = ([make() for make in makes], row)
                    groups.insert(key, entry, estimate_record_bytes(row))
                accumulators = entry[0]
                for slot, argument in arguments:
                    if argument is None:
                        accumulators[slot].add_rows(1)
                    else:
                        accumulators[slot].add(evaluate(argument, row))
            if not grouped and not len(groups) and not groups.spilled:
                # SQL: aggregates over an empty input still produce one row.
                groups.insert((), ([make() for make in makes], {}), 0)
            for accumulators, representative in groups.finalized(scalar.merge_group_state):
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
        return f"HashAggregate[{keys}]"


def _collect_aggregates(items: tuple[SelectItem, ...]) -> list[FuncCall]:
    calls: list[FuncCall] = []

    def walk(expr: Expression) -> None:
        if isinstance(expr, FuncCall) and expr.name.upper() in AGGREGATE_FUNCTIONS:
            calls.append(expr)
        elif isinstance(expr, FuncCall):
            for arg in expr.args:
                walk(arg)
        elif isinstance(expr, BinaryOp):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, (UnaryOp, IsAbsent)):
            walk(expr.operand)

    for item in items:
        walk(item.expr)
    return calls


def _eval_with_aggregates(
    evaluator: Evaluator, expr: Expression, row: Any, agg_results: dict[int, Any]
) -> Any:
    """Evaluate an output expression, substituting computed aggregates."""
    if id(expr) in agg_results:
        return agg_results[id(expr)]
    if isinstance(expr, BinaryOp):
        left = _eval_with_aggregates(evaluator, expr.left, row, agg_results)
        right = _eval_with_aggregates(evaluator, expr.right, row, agg_results)
        return evaluator.evaluate(BinaryOp(expr.op, Literal(left), Literal(right)), row)
    return evaluator.evaluate(expr, row)


def shape_aggregate_output(
    evaluator: Evaluator,
    items: tuple[SelectItem, ...],
    select_value: bool,
    row: Any,
    agg_results: dict[int, Any],
) -> Any:
    """One group's output: its SELECT list over the representative *row*."""
    if select_value:
        return _eval_with_aggregates(evaluator, items[-1].expr, row, agg_results)
    return {
        item.output_name(): _eval_with_aggregates(evaluator, item.expr, row, agg_results)
        for item in items
    }


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def project_row(
    evaluator: Evaluator,
    row: Any,
    items: tuple[SelectItem, ...],
    select_value: bool,
) -> Any:
    """Evaluate a SELECT list against one environment."""
    if select_value:
        value = evaluator.evaluate(items[0].expr, row)
        return _absent_to_none(value)
    record: dict[str, Any] = {}
    for item in items:
        if isinstance(item.expr, Star):
            if item.expr.qualifier is not None:
                source = row.get(item.expr.qualifier)
                if isinstance(source, dict):
                    record.update(source)
            else:
                for binding in row.values():
                    if isinstance(binding, dict):
                        record.update(binding)
            continue
        value = evaluator.evaluate(item.expr, row)
        if value is SENTINEL_MISSING:
            continue  # SQL++: MISSING fields vanish from constructed records
        record[item.output_name()] = value
    return record


def _absent_to_none(value: Any) -> Any:
    return None if value is SENTINEL_MISSING else value


def _shape_scalar(value: Any, item: SelectItem, select_value: bool) -> Any:
    """Shape a precomputed scalar the way the SELECT list would have."""
    if select_value:
        return value
    return {item.output_name(): value}
