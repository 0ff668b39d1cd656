"""Cypher execution over the graph store.

The executor reproduces the Neo4j behaviours the paper's results depend on:

- ``MATCH (t:L) RETURN COUNT(*)`` answers from the count store (O(1));
- a ``WITH t WHERE ...`` immediately after a MATCH is merged into the MATCH
  (Neo4j's planner does the same), so indexed predicates become index seeks;
- ``WITH t ORDER BY t.p DESC ... RETURN t LIMIT k`` over an indexed property
  becomes a bounded, backward index scan;
- a second MATCH pattern joined by a property-equality WHERE becomes an
  index nested-loop join (expression 12);
- property reads go through the store's record layout, so numeric
  predicates never touch the string store (auditable via
  ``stats.string_store_reads``);
- a labeled MATCH whose WHERE and aggregate read the node only as ``v.p``
  runs as one loop over property columns (:meth:`CypherExecutor._fuse`).

Operators, functions and aggregates are :mod:`repro.exec.scalar`'s under
its ``cypher`` dialect (``docs/execution.md#scalar-semantics``).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import replace
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ExecutionError
from repro.exec import scalar
from repro.exec.scalar import raises as _raises
from repro.exec.memory import MemoryBudget, estimate_record_bytes
from repro.obs.profile import OpProfile, profiled_rows
from repro.graphdb.cypher_ast import (
    AGGREGATES,
    Bin,
    CypherExpr,
    CypherQuery,
    Func,
    IsNull,
    Lit,
    MapLiteral,
    MapProjection,
    MatchClause,
    OrderKey,
    Pattern,
    Prop,
    Un,
    Var,
    WithClause,
    WithItem,
    children,
)
from repro.graphdb.store import GraphStore
from repro.sqlengine.result import QueryStats
from repro.storage.keys import SENTINEL_MISSING, index_key

CYPHER = scalar.DIALECTS["cypher"]


class NodeHandle:
    """A lazily read node: property access goes through the record layout."""

    __slots__ = ("store", "node_id")

    def __init__(self, store: GraphStore, node_id: int) -> None:
        self.store = store
        self.node_id = node_id

    def get(self, name: str) -> Any:
        value = self.store.read_property(self.node_id, name)
        # Cypher surfaces absent properties as null.
        return None if value is SENTINEL_MISSING else value

    def materialize(self) -> dict[str, Any]:
        return self.store.node_properties(self.node_id)

    def __repr__(self) -> str:
        return f"NodeHandle({self.node_id})"


Row = dict[str, Any]


class CypherExecutor:
    """Executes one parsed Cypher query."""

    def __init__(
        self,
        store: GraphStore,
        stats: QueryStats,
        memory: MemoryBudget | None = None,
    ) -> None:
        self._store = store
        self._stats = stats
        self._memory = memory if memory is not None else MemoryBudget()  # never spills
        #: Per-clause profile of the last ``profile=True`` execution.
        self.last_profile: OpProfile | None = None

    # ==================================================================
    def run(
        self, query: CypherQuery, *, profile: bool = False, stream: bool = False
    ) -> list[Any] | Iterator[Any]:
        self.last_profile = None
        clauses = _normalize(query)
        fast_count = self._try_count_store(clauses)
        if fast_count is not None:
            if profile:
                node = OpProfile("CountStoreLookup")
                node.rows_out = len(fast_count)
                self.last_profile = node
            return fast_count
        clauses = _prune(clauses)

        string_reads_before = self._store.strings.reads
        # Clauses chain as lazy generators (Neo4j's row pipeline), so a
        # trailing LIMIT stops upstream work — expressions 2, 5, and 10
        # never touch more than a handful of nodes.  In analyze mode each
        # clause's generator is wrapped so the chain records per-clause
        # wall time and row counts.
        rows: Iterator[Row] = iter([{}])
        bound_vars: set[str] = set()
        final_items: tuple[WithItem, ...] | None = None
        node: OpProfile | None = None
        fused: list[str] | None = None  # columns read by a fused MATCH + aggregate
        for clause, following in zip(clauses, clauses[1:] + [None]):
            if isinstance(clause, _MatchStep):
                desc = "Match({})".format(", ".join(
                    f"{p.var}:{p.label}" if p.label else p.var for p in clause.patterns
                ))
                scan = None if bound_vars else self._fuse(clause, following)
                if scan is not None:
                    fused, rows = scan
                    continue  # the aggregating clause that follows runs in the loop
                rows = self._execute_match(rows, clause, bound_vars)
                bound_vars = bound_vars | {pattern.var for pattern in clause.patterns}
            else:
                assert isinstance(clause, WithClause)
                rows = self._execute_with(rows, clause, aggregated=fused is not None)
                bound_vars = {item.output_name() for item in clause.items}
                if clause.is_return:
                    final_items = clause.items
                kind = "Return" if clause.is_return else "With"
                desc = kind if fused is None else f"{desc}+Aggregate[cols: {', '.join(fused)}]"
                fused = None
                if clause.where is not None:
                    desc += "+Filter"
            if profile:
                parent = OpProfile(desc, children=[node] if node is not None else [])
                rows = profiled_rows(parent, rows)
                node = parent
        if final_items is None:
            raise ExecutionError("query has no RETURN clause")
        output = _output(final_items)
        if stream and not profile:
            return self._emit(rows, output, string_reads_before)
        out = [output(row) for row in rows]
        self._stats.string_store_reads += self._store.strings.reads - string_reads_before
        if profile:
            self.last_profile = node
        return out

    def _emit(
        self, rows: Iterator[Row], output: Callable[[Row], Any], string_reads_before: int
    ) -> Iterator[Any]:
        """Stream output records; stats become final once drained."""
        try:
            for row in rows:
                yield output(row)
        finally:
            self._stats.string_store_reads += self._store.strings.reads - string_reads_before

    def _account_rows(self, buffered: list[Row]) -> Iterator[Row]:
        """Charge a materialized row buffer against the memory budget until
        downstream clauses drain it (or the query errors)."""
        nbytes = sum(estimate_record_bytes(row) for row in buffered)
        self._memory.reserve(nbytes)
        try:
            yield from buffered
        finally:
            self._memory.release(nbytes)

    # ------------------------------------------------------------------
    # Count-store fast path
    # ------------------------------------------------------------------
    def _try_count_store(self, clauses: list[Any]) -> list[Any] | None:
        match, ret = clauses if len(clauses) == 2 else (None, None)
        count = ret.items[0].expr if isinstance(ret, WithClause) and len(ret.items) == 1 else None
        if (
            isinstance(match, _MatchStep) and len(match.patterns) == 1
            and match.patterns[0].label is not None and match.where is None
            and match.order is None and ret.is_return and ret.where is None
            and not ret.order_by and isinstance(count, Func) and count.star
            and count.name.lower() == "count"
        ):
            return [self._store.counts.node_count(match.patterns[0].label)]
        return None

    # ------------------------------------------------------------------
    # MATCH
    # ------------------------------------------------------------------
    def _execute_match(
        self, rows: Iterator[Row], step: "_MatchStep", outer_vars: set[str]
    ) -> Iterator[Row]:
        conjuncts = _conjuncts(step.where) if step.where is not None else []
        bound = set(outer_vars)
        for pattern in step.patterns:
            rows, conjuncts = self._bind_pattern(rows, pattern, conjuncts, step, bound)
            bound.add(pattern.var)
        if conjuncts:
            rows = _where(rows, _conjoin(conjuncts))
        if step.order is not None and not step.order_served:
            # The ORDER BY folded into this step could not ride an index;
            # sort explicitly (Neo4j's fallback Sort operator).
            var, prop, descending = step.order
            key = _sort_key(Prop(var, prop))
            rows = self._account_rows(sorted(rows, key=key, reverse=descending))
        return rows

    def _bind_pattern(
        self, rows: Iterator[Row], pattern: Pattern, conjuncts: list[CypherExpr],
        step: "_MatchStep", bound_vars: set[str],
    ) -> tuple[Iterator[Row], list[CypherExpr]]:
        if pattern.var in bound_vars:
            # Re-matching an already bound variable (``MATCH (t), (r:L)``) adds nothing.
            return rows, conjuncts

        # Index nested-loop join: new.p = bound.q on an indexed property.
        if pattern.label is not None and bound_vars:
            join = self._find_join_conjunct(pattern, bound_vars, conjuncts)
            if join is not None:
                position, new_prop, bound_expr = join
                remaining = conjuncts[:position] + conjuncts[position + 1:]
                return self._index_join(rows, pattern, new_prop, bound_expr), remaining

        # Seeding scan: pick an index seek / range when the predicate allows.
        candidates, remaining = self._seed_candidates(pattern, conjuncts, step)
        if not bound_vars:
            # The seed row stream is a single empty row; the candidate walk stays lazy.
            def seed() -> Iterator[Row]:
                for node_id in candidates:
                    yield {pattern.var: NodeHandle(self._store, node_id)}

            return seed(), remaining

        def expand() -> Iterator[Row]:
            node_ids = list(candidates)  # re-iterated per outer row
            for row in rows:
                for node_id in node_ids:
                    yield {**row, pattern.var: NodeHandle(self._store, node_id)}

        return expand(), remaining

    def _find_join_conjunct(
        self, pattern: Pattern, bound_vars: set[str], conjuncts: list[CypherExpr]
    ) -> tuple[int, str, CypherExpr] | None:
        for position, part in enumerate(conjuncts):
            if not (isinstance(part, Bin) and part.op == "="):
                continue
            left, right = part.left, part.right
            for new_side, bound_side in ((left, right), (right, left)):
                if (
                    isinstance(new_side, Prop)
                    and new_side.var == pattern.var
                    and isinstance(bound_side, Prop)
                    and bound_side.var in bound_vars
                    and self._store.has_index(pattern.label, new_side.name)
                ):
                    return position, new_side.name, bound_side
        return None

    def _index_join(
        self, rows: Iterator[Row], pattern: Pattern, prop: str, bound_expr: CypherExpr
    ) -> Iterator[Row]:
        tree = self._store.index(pattern.label, prop)
        bound_value = _compile(bound_expr)
        for row in rows:
            value = bound_value(row, None)
            if value is None:
                continue
            for node_id in tree.search(index_key(value)):
                self._stats.index_entries += 1
                yield {**row, pattern.var: NodeHandle(self._store, node_id)}

    def _seed_candidates(
        self, pattern: Pattern, conjuncts: list[CypherExpr], step: "_MatchStep"
    ) -> tuple[Iterator[int], list[CypherExpr]]:
        label = pattern.label
        if label is None:
            raise ExecutionError(f"pattern ({pattern.var}) must carry a label")

        # Equality seek.
        for position, part in enumerate(conjuncts):
            matched = _match_prop_literal(part, pattern.var)
            if matched and matched[0] == "=" and self._store.has_index(label, matched[1]):
                remaining = conjuncts[:position] + conjuncts[position + 1:]
                return self._index_seek(label, matched[1], matched[2]), remaining
        # Range scan: both bounds on the first indexed property that has one.
        bounds: dict[str, dict[str, Any]] = {}
        for part in conjuncts:
            matched = _match_prop_literal(part, pattern.var)
            if matched and matched[0] in _ORDERINGS and self._store.has_index(label, matched[1]):
                op, prop, value = matched
                side = "low" if op in (">", ">=") else "high"
                bounds.setdefault(prop, {}).update({side: value, f"{side}_inc": "=" in op})
        for prop, entry in bounds.items():
            remaining = [
                part
                for part in conjuncts
                if not ((m := _match_prop_literal(part, pattern.var)) and m[1] == prop
                        and m[0] in _ORDERINGS)
            ]
            return self._index_range(label, prop, entry), remaining

        # Ordered scan (ORDER BY ... LIMIT pushed into the match).
        if step.order is not None:
            order_var, order_prop, descending = step.order
            if order_var == pattern.var and self._store.has_index(label, order_prop):
                step.order_served = True
                ordered = self._index_ordered(label, order_prop, descending, step.limit_hint)
                return ordered, conjuncts

        return self._label_scan(label), conjuncts

    def _label_scan(self, label: str) -> Iterator[int]:
        self._stats.full_scans += 1
        for node_id in self._store.label_scan(label):
            self._stats.heap_fetches += 1
            yield node_id

    def _index_seek(self, label: str, prop: str, value: Any) -> Iterator[int]:
        for node_id in self._store.index(label, prop).search(index_key(value)):
            self._stats.index_entries += 1
            yield node_id

    def _index_range(self, label: str, prop: str, entry: dict[str, Any]) -> Iterator[int]:
        low = index_key(entry["low"]) if "low" in entry else (2,)
        high = index_key(entry["high"]) if "high" in entry else None
        for _key, node_id in self._store.index(label, prop).scan(
            low, high, low_inclusive=entry.get("low_inc", True),
            high_inclusive=entry.get("high_inc", True),
        ):
            self._stats.index_entries += 1
            yield node_id

    def _index_ordered(
        self, label: str, prop: str, descending: bool, limit: int | None
    ) -> Iterator[int]:
        entries = self._store.index(label, prop).scan(reverse=descending)
        for _key, node_id in itertools.islice(entries, limit):
            self._stats.index_entries += 1
            yield node_id

    # ------------------------------------------------------------------
    # WITH / RETURN
    # ------------------------------------------------------------------
    def _execute_with(
        self, rows: Iterator[Row], clause: WithClause, aggregated: bool = False
    ) -> Iterator[Row]:
        if clause.has_aggregates():
            if not aggregated:  # else *rows* are its groups already (see _fuse)
                rows = self._aggregate(((row, row) for row in rows), clause.items)
        else:
            items = [(item.output_name(), _compile(item.expr)) for item in clause.items]
            if len(items) == 1:
                ((name, fn),) = items
                rows = ({name: fn(row, None)} for row in rows)
            else:
                rows = ({name: fn(row, None) for name, fn in items} for row in rows)
        if clause.where is not None:
            rows = _where(rows, clause.where)
        if clause.order_by:
            rows = self._account_rows(self._order(list(rows), clause.order_by))
        if clause.distinct:
            rows = self._distinct(rows)
        if clause.limit is not None:
            rows = itertools.islice(rows, clause.limit)
        return rows

    def _distinct(self, rows: Iterator[Row]) -> Iterator[Row]:
        seen: set = set()
        for row in rows:
            key = scalar.hashable({name: _plain_value(value) for name, value in row.items()})
            if key not in seen:
                seen.add(key)
                yield row

    def _order(self, rows: list[Row], keys: tuple[OrderKey, ...]) -> list[Row]:
        for key in reversed(keys):
            rows.sort(key=_sort_key(key.expr), reverse=key.descending)
        return rows

    # ------------------------------------------------------------------
    # Implicit grouping (Cypher aggregates)
    # ------------------------------------------------------------------
    def _aggregate(
        self, feed: Iterable[tuple[Any, Any]], items: tuple[WithItem, ...],
        columns: dict | None = None, represent: Callable = lambda row: row,
    ) -> Iterator[Row]:
        """Group ``(source, values)`` pairs as they stream in, one row out per group.
        Keys and arguments read *values* (column tuples in slot mode, *columns*);
        outputs read ``represent(source)`` of a group's first member."""
        group_exprs, calls = _classify(items)
        key_parts = [_compile(expr, columns) for expr in group_exprs]
        if columns is None:  # a row's key may be a node or a map: group its hashable form
            key_parts = [lambda row, aggs, part=part: scalar.hashable(_plain_value(part(row, aggs)))
                         for part in key_parts]
        leading = columns is not None and [
            columns.get((e.var, e.name)) for e in group_exprs if isinstance(e, Prop)]
        if leading == list(range(len(group_exprs))):  # plain key columns lead: slice them
            key_of = operator.itemgetter(slice(len(group_exprs)))
        else:
            key_of = lambda values: tuple([part(values, None) for part in key_parts])  # noqa: E731
        aggregates = [_compile_aggregate(call, columns) for call in calls]
        slots = {id(call): slot for slot, call in enumerate(calls)}
        outputs = [(item.output_name(), _compile(item.expr, slots)) for item in items]

        def new_group(representative: Row) -> tuple[list[tuple[RowFn, Any]], Row]:
            return [(argument, make()) for make, argument in aggregates], representative

        groups: dict[tuple, tuple[list[tuple[RowFn, Any]], Row]] = {}
        charged = 0
        try:
            for source, values in feed:
                key = key_of(values)
                entry = groups.get(key)
                if entry is None:
                    entry = groups[key] = new_group(represent(source))
                    nbytes = estimate_record_bytes(entry[1])
                    self._memory.reserve(nbytes)
                    charged += nbytes
                for argument, acc in entry[0]:
                    acc.add(argument(values, None))
            if not group_exprs and not groups:
                groups[()] = new_group({})
            out = []  # every group's outputs before the first row: a LIMIT reads no fewer
            for fed, representative in groups.values():
                results = [acc.result() for _argument, acc in fed]
                out.append({name: fn(representative, results) for name, fn in outputs})
            yield from out
        finally:
            self._memory.release(charged)

    def _fuse(self, step: "_MatchStep", clause: Any) -> tuple[list[str], Iterator[Row]] | None:
        """``(columns, groups)`` of *step* and the aggregating *clause* as one loop over
        columns, when one labeled pattern's WHERE and items read it only as ``v.p``."""
        pattern = step.patterns[0]
        if len(step.patterns) != 1 or pattern.label is None or step.order is not None:
            return None
        if not (isinstance(clause, WithClause) and clause.has_aggregates()):
            return None
        var = pattern.var
        conjuncts = _conjuncts(step.where) if step.where is not None else []
        reads = [ref for expr in conjuncts + [i.expr for i in clause.items] for ref in _refs(expr)]
        if any(not isinstance(ref, Prop) or ref.var != var for ref in reads):
            return None
        candidates, remaining = self._seed_candidates(pattern, conjuncts, step)
        group_exprs, calls = _classify(clause.items)
        # One column per read (keys first), so read_columns books the string
        # reads the row chain does: the WHERE's for every node, the rest for kept ones.
        fed = [ref.name for expr in group_exprs + _arguments(calls) for ref in _refs(expr)]
        columns = fed + [ref.name for part in remaining for ref in _refs(part)]
        slots = {(var, name): slot for slot, name in reversed(list(enumerate(columns)))}
        test = _compile(_conjoin(remaining), slots) if remaining else None
        store, unkept = self._store, len(fed)

        def scan() -> Iterator[tuple[int, tuple]]:
            node_ids = list(candidates)
            rows = zip(node_ids, store.read_columns(node_ids, columns))
            if test is None:
                yield from rows
                return
            for node_id, values in rows:
                if test(values, None) is True:
                    yield node_id, values
                elif unkept:
                    store.strings.reads -= sum(isinstance(v, str) for v in values[:unkept])

        represent = lambda node_id: {var: NodeHandle(store, node_id)}  # noqa: E731
        return list(dict.fromkeys(columns)), self._aggregate(scan(), clause.items, slots, represent)


# ----------------------------------------------------------------------
# Expression compilation
# ----------------------------------------------------------------------

#: A compiled expression: ``fn(row, aggregate_results) -> value``; the
#: second argument is ``None`` outside an aggregating WITH/RETURN.
RowFn = Callable[[Row, Any], Any]


def _compile(expr: CypherExpr, slots: dict[Any, int] | None = None) -> RowFn:
    """Compile a Cypher expression into a closure, once per clause.

    Node type, operator and function name are switched on here, not per
    row.  Nothing raises at compile time: an unbound variable, unknown
    function or misplaced aggregate raises when the closure is *called*.
    With ``slots``, aggregate calls keyed ``id(call)`` read the group's
    result list, and properties keyed ``(var, prop)`` read that position of
    an already-read column tuple (slot mode: the closure's first argument).
    """
    build = _BUILDERS.get(type(expr))
    if build is None:
        return _raises(f"cannot evaluate {type(expr).__name__}")
    return build(expr, slots)


def _output(items: tuple[WithItem, ...]) -> Callable[[Row], Any]:
    """The RETURN record of a row: the bare value of a single item, else a map."""
    names = [item.output_name() for item in items]
    if len(names) == 1:
        return lambda row: _plain_value(row[names[0]])
    return lambda row: {name: _plain_value(row[name]) for name in names}


def _sort_key(expr: CypherExpr) -> Callable[[Row], tuple]:
    value = _compile(expr)
    return lambda row: index_key(value(row, None))


def _where(rows: Iterator[Row], predicate: CypherExpr) -> Iterator[Row]:
    test = _compile(predicate)
    return (row for row in rows if test(row, None) is True)


def _plain_value(value: Any) -> Any:
    return value.materialize() if isinstance(value, NodeHandle) else value


def _compile_var(expr: Var, _slots: Any) -> RowFn:
    name = expr.name

    def read(row: Row, _aggs: Any) -> Any:
        try:
            return row[name]
        except KeyError:
            raise ExecutionError(f"unbound variable {name!r}") from None

    return read


def _compile_prop(expr: Prop, slots: Any) -> RowFn:
    var, name = expr.var, expr.name
    slot = None if slots is None else slots.get((var, name))
    if slot is not None:
        return lambda values, _aggs: values[slot]

    def read(row: Row, _aggs: Any) -> Any:
        base = row.get(var)
        if type(base) is NodeHandle:  # NodeHandle.get, without the extra call
            value = base.store.read_property(base.node_id, name)
            return None if value is SENTINEL_MISSING else value
        if base is None:
            return None
        if isinstance(base, (NodeHandle, dict)):
            return base.get(name)
        raise ExecutionError(f"cannot access property on {type(base).__name__}")

    return read


_ORDERINGS = (">", "<", ">=", "<=")


def _compile_map_literal(expr: MapLiteral, slots: Any) -> RowFn:
    entries = [(key, _compile(value, slots)) for key, value in expr.entries]
    return lambda row, aggs: {key: _plain_value(fn(row, aggs)) for key, fn in entries}


def _compile_map_projection(expr: MapProjection, slots: Any) -> RowFn:
    var, include_all, extra_vars = expr.var, expr.include_all, expr.extra_vars
    if not include_all and not extra_vars:
        return _compile_map_literal(expr, slots)  # ``t{'k': ...}`` never reads t
    entries = [(key, _compile(value, slots)) for key, value in expr.entries]

    def project(row: Row, aggs: Any) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if include_all:
            base = row.get(var)
            if isinstance(base, NodeHandle):
                out = base.materialize()
            elif isinstance(base, dict):
                out.update(base)
        for key, fn in entries:
            out[key] = _plain_value(fn(row, aggs))
        for name in extra_vars:
            out[name] = _plain_value(row.get(name))
        return out

    return project


#: Cypher's scalar functions, by lower-cased name, onto the shared table.
_FUNCTIONS = {"upper": "UPPER", "lower": "LOWER", "tointeger": "TO_INT", "toint": "TO_INT",
              "tostring": "TO_STRING", "abs": "ABS", "size": "SIZE"}


def _compile_func(expr: Func, slots: Any) -> RowFn:
    name = expr.name.lower()
    if name in AGGREGATES:
        slot = None if slots is None else slots.get(id(expr))
        if slot is None:
            return _raises(f"aggregate {expr.name} outside aggregation context")
        return lambda _row, aggs: aggs[slot]
    arguments = [_compile(arg, slots) for arg in expr.args]
    if name not in _FUNCTIONS:
        # apoc.convert.* arrives as nested idents; parser flattens to one name.
        message = f"unknown function {expr.name!r}"

        def unknown(row: Row, aggs: Any) -> Any:
            for argument in arguments:
                argument(row, aggs)
            raise ExecutionError(message)

        return unknown
    return scalar.compile_call(_FUNCTIONS[name], expr.name, arguments)


_BUILDERS: dict[type, Callable[[Any, Any], RowFn]] = {
    Lit: lambda expr, _slots: lambda _row, _aggs: expr.value,
    Var: _compile_var,
    Prop: _compile_prop,
    # Operators are the shared kernel's, under Cypher's row of its dialect table.
    Bin: lambda expr, slots: scalar.compile_binary(
        expr.op, CYPHER, _compile(expr.left, slots), _compile(expr.right, slots)
    ),
    Un: lambda expr, slots: (scalar.compile_not if expr.op == "NOT" else scalar.compile_negate)(
        _compile(expr.operand, slots)
    ),
    IsNull: lambda expr, slots: scalar.compile_is(
        "null", expr.negated, CYPHER, _compile(expr.operand, slots)
    ),
    MapLiteral: _compile_map_literal,
    MapProjection: _compile_map_projection,
    Func: _compile_func,
}


# ----------------------------------------------------------------------
# Clause normalization
# ----------------------------------------------------------------------


class _MatchStep:
    """A MATCH with merged predicates and order/limit hints."""

    def __init__(self, clause: MatchClause) -> None:
        self.patterns = clause.patterns
        self.where = clause.where
        self.order: tuple[str, str, bool] | None = None  # (var, prop, desc)
        self.order_served = False  # True once an index provides the order
        self.limit_hint: int | None = None

    def merge_where(self, predicate: CypherExpr) -> None:
        self.where = predicate if self.where is None else Bin("AND", self.where, predicate)


def _normalize(query: CypherQuery) -> list[Any]:
    """Merge passthrough ``WITH t [WHERE/ORDER BY]`` clauses into MATCH steps."""
    steps: list[Any] = []
    clauses = list(query.clauses)
    index = 0
    while index < len(clauses):
        clause = clauses[index]
        if isinstance(clause, MatchClause):
            step = _MatchStep(clause)
            # Consecutive MATCH clauses merge into one step (expression 12's
            # ``MATCH (t:data) MATCH (t), (r:other) WHERE ...``).
            next_index = index + 1
            while next_index < len(clauses) and isinstance(clauses[next_index], MatchClause):
                extra = clauses[next_index]
                step.patterns = step.patterns + extra.patterns
                if extra.where is not None:
                    step.merge_where(extra.where)
                next_index += 1
            # Fold passthrough WITHs (WHERE / ORDER BY hints) into the match.
            while next_index < len(clauses):
                peek = clauses[next_index]
                if not isinstance(peek, WithClause) or peek.is_return:
                    break
                if not peek.is_passthrough() or peek.has_aggregates() or peek.limit is not None:
                    break
                if peek.where is not None:
                    step.merge_where(peek.where)
                if peek.order_by:
                    if len(peek.order_by) == 1 and isinstance(peek.order_by[0].expr, Prop):
                        order = peek.order_by[0]
                        step.order = (order.expr.var, order.expr.name, order.descending)
                    else:
                        break
                next_index += 1
            # A trailing passthrough RETURN with LIMIT bounds an ordered scan.
            tail = clauses[next_index] if next_index < len(clauses) else None
            if step.order is not None and isinstance(tail, WithClause) and tail.is_return:
                if tail.is_passthrough() and tail.limit is not None:
                    step.limit_hint = tail.limit
            steps.append(step)
            index = next_index
            continue
        steps.append(clause)
        index += 1
    return steps


def _refs(expr: CypherExpr | None) -> list[CypherExpr]:
    """Every ``Prop`` / ``Var`` read of *expr* in order (``t{.*, r}`` reads t and r whole)."""
    if isinstance(expr, (Var, Prop)):
        return [expr]
    out = [ref for child in children(expr) for ref in _refs(child)]
    if isinstance(expr, MapProjection):
        out += [Var(expr.var)] * expr.include_all + [Var(name) for name in expr.extra_vars]
    return out


def _folds(clause: WithClause, following: WithClause, nodes: set[str]) -> bool:
    """Whether *following* can read the node of an identity projection ``WITH t{'k': t.k}``
    in its place: each entry once per row, projected or as an aggregate argument (a group
    key is re-read per group), so not even the string-store reads change."""
    projection = clause.items[0].expr if len(clause.items) == 1 else None
    if (
        not isinstance(projection, MapProjection)
        or projection.include_all
        or projection.extra_vars
        or projection.var not in nodes
        or clause.items[0].output_name() != projection.var
    ):
        return False
    entries = [str(value) for _key, value in projection.entries]  # "t.k" for each t.k
    reads = [ref for item in following.items for ref in _refs(item.expr)]
    if entries != [f"{projection.var}.{key}" for key, _v in projection.entries] or sorted(
        map(str, reads)
    ) != sorted(entries):
        return False
    fed = _arguments(_classify(following.items)[1]) if following.has_aggregates() else None
    return fed is None or reads == [ref for arg in fed for ref in _refs(arg)]


def _prune(steps: list[Any]) -> list[Any]:
    """Drop plain WITHs and items the next clause needs no row of (:func:`_folds`, or unread
    items that cannot raise); runs after the count-store check, which sees the query as written."""
    out: list[Any] = []
    bound: set[str] = set()
    nodes: set[str] = set()  # the bound variables known to hold nodes
    for clause, following in zip(steps, steps[1:] + [None]):
        if isinstance(clause, _MatchStep):
            fresh = {pattern.var for pattern in clause.patterns} - bound
            bound, nodes = bound | fresh, nodes | fresh
            out.append(clause)
            continue
        inert = isinstance(following, WithClause) and not (
            clause.is_return or clause.distinct or clause.order_by or clause.where is not None
            or clause.limit is not None
        ) and [  # items that cannot raise: a node, or a map projection of node properties
            isinstance(item.expr, Var) and item.expr.name in nodes
            or isinstance(item.expr, MapProjection) and item.expr.var in nodes
            and all(isinstance(v, Prop) and v.var in nodes for v in children(item.expr))
            for item in clause.items
        ]
        if inert and any(inert) and not clause.has_aggregates():
            if _folds(clause, following, nodes):
                continue
            read = {ref.var if isinstance(ref, Prop) else ref.name
                    for item in following.items for ref in _refs(item.expr)}
            keep = tuple(item for item, droppable in zip(clause.items, inert)
                         if not droppable or item.output_name() in read)
            if not keep and not read:
                continue  # the next clause reads no variable: the whole WITH goes
            clause = clause if len(keep) == len(clause.items) else replace(clause, items=keep)
        bound = {item.output_name() for item in clause.items}
        nodes = {item.output_name() for item in clause.items
                 if isinstance(item.expr, Var) and item.expr.name in nodes}
        out.append(clause)
    return out


# ----------------------------------------------------------------------
# Predicate helpers and accumulators
# ----------------------------------------------------------------------


def _conjuncts(expr: CypherExpr) -> list[CypherExpr]:
    if isinstance(expr, Bin) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _conjoin(parts: list[CypherExpr]) -> CypherExpr:
    out = parts[0]
    for part in parts[1:]:
        out = Bin("AND", out, part)
    return out


def _match_prop_literal(expr: CypherExpr, var: str) -> tuple[str, str, Any] | None:
    flipped = {">": "<", "<": ">", ">=": "<=", "<=": ">=", "=": "="}
    if not isinstance(expr, Bin) or expr.op not in flipped:
        return None
    left, right = expr.left, expr.right
    if isinstance(left, Prop) and left.var == var and isinstance(right, Lit):
        return expr.op, left.name, right.value
    if isinstance(right, Prop) and right.var == var and isinstance(left, Lit):
        return flipped[expr.op], right.name, left.value
    return None


def _compile_aggregate(call: Func, slots: Any = None) -> tuple[Callable[[], Any], RowFn]:
    """``(accumulator factory, argument closure)`` of one aggregate call."""
    name = call.name.lower()
    kind = "STD" if name.startswith("stdev") else name.upper()
    make = scalar.accumulator(kind, CYPHER, call.name)
    if call.star:
        counted = True if kind == "COUNT" else None  # only COUNT(*) counts rows
        return make, lambda _row, _aggs: counted
    if not call.args:  # ``count()``: fails at the first row, never on no rows
        return make, _raises(f"{call.name}() takes one argument")
    return make, _compile(call.args[0], slots)


def _arguments(calls: list[Func]) -> list[CypherExpr]:
    """The argument each aggregate call evaluates per row (only the first)."""
    return [call.args[0] for call in calls if call.args and not call.star]


def _classify(items: tuple[WithItem, ...]) -> tuple[list[CypherExpr], list[Func]]:
    """Split aggregating items into implicit group keys and aggregate calls."""
    group_exprs: list[CypherExpr] = []
    agg_calls: list[Func] = []

    def classify(expr: CypherExpr) -> None:
        if isinstance(expr, Func) and expr.name.lower() in AGGREGATES:
            agg_calls.append(expr)
        elif isinstance(expr, (MapLiteral, MapProjection, Bin, Un, IsNull)):
            for child in children(expr):
                classify(child)
            if isinstance(expr, MapProjection) and (expr.include_all or expr.extra_vars):
                group_exprs.append(Var(expr.var))
        elif not isinstance(expr, Lit):
            group_exprs.append(expr)

    for item in items:
        classify(item.expr)
    return group_exprs, agg_calls
