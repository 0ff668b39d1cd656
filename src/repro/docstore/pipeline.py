"""Aggregation pipeline execution with a pipeline-scoped optimizer.

The optimizer reproduces MongoDB's documented pipeline behaviour:

- leading no-op ``{"$match": {}}`` stages (which PolyFrame always emits as
  the dataset anchor) are elided;
- an inclusion-only ``$project`` right before a ``$group`` that reads
  nothing but included top-level fields is dropped (MongoDB's dependency
  analysis does the same): it would build a narrowed copy of every
  document for nothing;
- a leading ``$match`` with an equality/range predicate on an indexed field
  becomes an index scan with the remainder as residual filter;
- a leading ``$sort`` on an indexed field becomes an index-ordered scan —
  descending uses a backward scan — and a downstream ``$limit`` bounds it
  (expression 9's fast path);
- everything deeper in the pipeline executes stage by stage, which is why
  the metadata fast-count cannot help expression 1 here.

``$lookup`` in its ``let``/``pipeline`` form is executed as an index
nested-loop join when the sub-pipeline is a single ``$expr`` equality on an
indexed field, matching the paper's expression-12 observation.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from repro.errors import ExecutionError, UnsupportedOperationError
from repro.docstore.collection import Collection
from repro.docstore.exprs import Compiled, compile_expr, compile_match, compile_path
from repro.exec import scalar
from repro.exec.kernels import Descending
from repro.exec.memory import (
    MemoryBudget,
    SpillableGroups,
    SpillSorter,
    estimate_record_bytes,
)
from repro.obs.profile import OpProfile, profiled_rows
from repro.sqlengine.result import QueryStats
from repro.storage.keys import SENTINEL_MISSING, index_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.docstore.database import MongoDatabase

_SOURCE_TRANSPARENT_STAGES = ("$project", "$addFields")


class PipelineExecutor:
    """Runs one aggregation pipeline against a collection."""

    def __init__(self, database: "MongoDatabase") -> None:
        self._db = database
        #: Per-stage profile of the last ``profile=True`` execution.
        self.last_profile: OpProfile | None = None
        #: Per-query budget the blocking stages account/spill against.
        self.memory = MemoryBudget()

    def execute(
        self,
        collection: Collection,
        stages: list[dict[str, Any]],
        stats: QueryStats,
        *,
        profile: bool = False,
        memory: MemoryBudget | None = None,
        stream: bool = False,
    ) -> list[Any] | Iterator[Any]:
        """Run the pipeline; a list by default, an iterator when streaming.

        ``memory`` is the per-query budget the blocking stages ($sort,
        $group) spill under; ``stream=True`` returns the stage chain's
        lazy iterator instead of materializing it (profiling wins over
        streaming — the documented fallback).
        """
        self.last_profile = None
        self.memory = memory if memory is not None else MemoryBudget()
        stages = [dict(stage) for stage in stages]
        for i in range(len(stages) - 1, 0, -1):
            if "$group" in stages[i] and "$project" in stages[i - 1]:
                if _keeps_what_group_reads(stages[i - 1]["$project"], stages[i]["$group"]):
                    del stages[i - 1]
        source, remaining, source_desc = self._choose_source(collection, stages, stats)
        docs: Iterable[Any] = source
        if not profile:
            for stage in remaining:
                docs = self._apply_stage(collection, docs, stage, stats)
            if stream:
                return iter(docs)
            return list(docs)

        # Analyze mode: the pipeline is a linear operator chain — wrap the
        # chosen source and every remaining stage's iterator so each link
        # records its own wall time and row count.
        node = OpProfile(source_desc)
        docs = profiled_rows(node, docs)
        for stage in remaining:
            stage_op = next(iter(stage))
            parent = OpProfile(stage_op, children=[node])
            docs = profiled_rows(
                parent, self._apply_stage(collection, docs, stage, stats)
            )
            node = parent
        records = list(docs)
        self.last_profile = node
        return records

    # ------------------------------------------------------------------
    # Source selection (the index-capable pipeline prefix)
    # ------------------------------------------------------------------
    def _choose_source(
        self,
        collection: Collection,
        stages: list[dict[str, Any]],
        stats: QueryStats,
    ) -> tuple[Iterator[dict[str, Any]], list[dict[str, Any]], str]:
        index = 0
        while index < len(stages) and stages[index] == {"$match": {}}:
            index += 1
        stages = stages[index:]

        if stages and "$match" in stages[0]:
            chosen = self._try_index_match(collection, stages[0]["$match"], stats)
            if chosen is not None:
                source, fully_consumed, field = chosen
                # A partially indexable $match (e.g. $and of equalities)
                # keeps the whole stage as a residual re-check.
                remaining = stages[1:] if fully_consumed else stages
                return source, remaining, f"IndexScan({collection.name}.{field})"

        if stages and "$sort" in stages[0]:
            chosen = self._try_index_sort(collection, stages, stats)
            if chosen is not None:
                source, remaining, field = chosen
                return source, remaining, f"IndexOrderedScan({collection.name}.{field})"

        return (
            self._full_scan(collection, stats),
            stages,
            f"CollectionScan({collection.name})",
        )

    def _full_scan(self, collection: Collection, stats: QueryStats) -> Iterator[dict[str, Any]]:
        stats.full_scans += 1
        for doc in collection.scan():
            stats.heap_fetches += 1
            yield doc

    def _try_index_match(
        self, collection: Collection, match: dict[str, Any], stats: QueryStats
    ) -> tuple[Iterator[dict[str, Any]], bool, str] | None:
        """Serve an equality $match from an index when possible.

        Returns ``(document iterator, fully_consumed, field)``;
        ``fully_consumed`` is False when the probe covers only part of the
        predicate (an ``$and`` of equalities — expression 3's shape) and
        the stage must be re-applied as a residual filter.
        """
        equalities, exhaustive = self._extract_equalities(match)
        for field, value in equalities:
            if not collection.has_index(field):
                continue

            def probe(field: str = field, value: Any = value) -> Iterator[dict[str, Any]]:
                for rid in collection.index(field).search(index_key(value)):
                    stats.index_entries += 1
                    stats.heap_fetches += 1
                    yield collection.fetch(rid)

            fully_consumed = exhaustive and len(equalities) == 1
            return probe(), fully_consumed, field
        return None

    def _extract_equalities(
        self, match: dict[str, Any]
    ) -> tuple[list[tuple[str, Any]], bool]:
        """Field-equals-constant conjuncts of a $match, plus exhaustiveness."""
        if len(match) != 1:
            return [], False
        key, condition = next(iter(match.items()))
        if key == "$expr":
            return self._expr_equalities(condition)
        if not key.startswith("$") and not isinstance(condition, dict):
            return [(key, condition)], True
        return [], False

    def _expr_equalities(self, expr: Any) -> tuple[list[tuple[str, Any]], bool]:
        if not isinstance(expr, dict) or len(expr) != 1:
            return [], False
        op, operand = next(iter(expr.items()))
        if op == "$eq":
            left, right = operand
            if (
                isinstance(left, str)
                and left.startswith("$")
                and not left.startswith("$$")
                and not (isinstance(right, (str, dict)) and str(right).startswith("$"))
            ):
                return [(left[1:], right)], True
            return [], False
        if op == "$and":
            found: list[tuple[str, Any]] = []
            for member in operand:
                member_eqs, _ = self._expr_equalities(member)
                found.extend(member_eqs)
            # $and is never exhaustive here: other conjuncts must re-check.
            return found, False
        return [], False

    def _try_index_sort(
        self,
        collection: Collection,
        stages: list[dict[str, Any]],
        stats: QueryStats,
    ) -> tuple[Iterator[dict[str, Any]], list[dict[str, Any]], str] | None:
        """Serve a leading $sort (with downstream $limit) by index order."""
        sort_spec = stages[0]["$sort"]
        if len(sort_spec) != 1:
            return None
        field, direction = next(iter(sort_spec.items()))
        if not collection.has_index(field):
            return None
        limit: int | None = None
        for stage in stages[1:]:
            if "$limit" in stage:
                limit = int(stage["$limit"])
                break
            if not any(name in stage for name in _SOURCE_TRANSPARENT_STAGES):
                break

        def ordered() -> Iterator[dict[str, Any]]:
            produced = 0
            for _key, rid in collection.index(field).scan(reverse=direction < 0):
                stats.index_entries += 1
                stats.heap_fetches += 1
                yield collection.fetch(rid)
                produced += 1
                if limit is not None and produced >= limit:
                    return

        return ordered(), stages[1:], field

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------
    def _apply_stage(
        self,
        collection: Collection,
        docs: Iterable[dict[str, Any]],
        stage: dict[str, Any],
        stats: QueryStats,
    ) -> Iterable[Any]:
        if len(stage) != 1:
            raise ExecutionError(f"pipeline stage must have one operator: {stage}")
        op, spec = next(iter(stage.items()))
        if op == "$match":
            return self._stage_match(docs, spec)
        if op == "$project":
            return self._stage_project(docs, spec)
        if op == "$addFields":
            return self._stage_add_fields(docs, spec)
        if op == "$group":
            return self._stage_group(docs, spec)
        if op == "$sort":
            return self._stage_sort(docs, spec)
        if op == "$limit":
            return self._stage_limit(docs, int(spec))
        if op == "$skip":
            return self._stage_skip(docs, int(spec))
        if op == "$count":
            return self._stage_count(docs, str(spec))
        if op == "$unwind":
            return self._stage_unwind(docs, spec)
        if op == "$lookup":
            return self._stage_lookup(docs, spec, stats)
        if op == "$out":
            return self._stage_out(docs, spec)
        raise ExecutionError(f"unsupported pipeline stage {op!r}")

    def _stage_match(self, docs: Iterable[dict], spec: dict) -> Iterator[dict]:
        predicate = compile_match(spec)
        return (doc for doc in docs if predicate(doc, None))

    def _stage_project(self, docs: Iterable[dict], spec: dict) -> Iterator[dict]:
        if all(value in (0, False) for value in spec.values()):
            for doc in docs:
                out = doc.copy()
                for key in spec:
                    out.pop(key, None)
                yield out
            return
        keep_id = spec.get("_id", 1) not in (0, False)
        # Inclusions read the field's own path, computed members their
        # expression; exclusions inside a mixed spec have nothing to drop.
        members = [
            (key, compile_path(key) if value in (1, True) else compile_expr(value))
            for key, value in spec.items()
            if key != "_id" and value not in (0, False)
        ]
        for doc in docs:
            out = {"_id": doc["_id"]} if keep_id and "_id" in doc else {}
            for key, fn in members:
                value = fn(doc, None)
                if value is not SENTINEL_MISSING:
                    out[key] = value
            yield out

    def _stage_add_fields(self, docs: Iterable[dict], spec: dict) -> Iterator[dict]:
        members = [(key, compile_expr(value)) for key, value in spec.items()]
        for doc in docs:
            out = dict(doc)
            for key, fn in members:
                value = fn(doc, None)
                if value is not SENTINEL_MISSING:
                    out[key] = value
            yield out

    def _stage_group(self, docs: Iterable[dict], spec: dict) -> Iterator[dict]:
        group_id_of, key_of = _compile_group_id(spec.get("_id"))
        # (output name, accumulator factory, compiled argument); a malformed
        # spec fails where it always did, when the first group needs its state.
        accumulators = [
            (name, _accumulator(agg), compile_expr(next(iter(agg.values()), None)
                                                   if isinstance(agg, dict) else None))
            for name, agg in spec.items()
            if name != "_id"
        ]
        arguments = [(slot, fn) for slot, (_name, _make, fn) in enumerate(accumulators)]
        groups = SpillableGroups(self.memory)
        try:
            for doc in docs:
                key = key_of(doc)
                entry = groups.get(key)
                if entry is None:
                    group_id = group_id_of(doc, None)
                    entry = ([make() for _name, make, _fn in accumulators], group_id)
                    groups.insert(key, entry, estimate_record_bytes(group_id))
                accs = entry[0]
                for slot, fn in arguments:
                    accs[slot].add(fn(doc, None))
            for accs, group_id in groups.finalized(scalar.merge_group_state):
                out = {"_id": group_id}
                for acc, (name, _make, _fn) in zip(accs, accumulators):
                    out[name] = acc.result()
                yield out
        finally:
            groups.close()

    def _stage_sort(self, docs: Iterable[dict], spec: dict) -> Iterator[dict]:
        # One stable composite-key sort with per-key direction — equivalent
        # to the reversed sequence of stable single-key sorts MongoDB
        # specifies — so the spill path can merge runs on the same keys.
        fields = [(compile_path(field), direction < 0) for field, direction in spec.items()]
        sorter = SpillSorter(self.memory)
        try:
            for doc in docs:
                key = []
                for fn, descending in fields:
                    value = fn(doc, None)
                    part = scalar.order_key(value, "$sort")
                    key.append(Descending(part) if descending else part)
                sorter.add(tuple(key), doc)
            yield from sorter.sorted_records()
        finally:
            sorter.close()

    def _stage_limit(self, docs: Iterable[dict], limit: int) -> Iterator[dict]:
        # islice stops after the n-th document without asking for one more.
        return itertools.islice(docs, max(limit, 0))

    def _stage_skip(self, docs: Iterable[dict], count: int) -> Iterator[dict]:
        return itertools.islice(docs, max(count, 0), None)

    def _stage_count(self, docs: Iterable[dict], name: str) -> Iterator[dict]:
        total = sum(1 for _doc in docs)
        yield {name: total}

    def _stage_unwind(self, docs: Iterable[dict], spec: Any) -> Iterator[dict]:
        if isinstance(spec, str):
            spec = {"path": spec}
        path = spec["path"]
        if not path.startswith("$"):
            raise ExecutionError("$unwind path must start with '$'")
        field = path[1:]
        read = compile_path(field)
        preserve = bool(spec.get("preserveNullAndEmptyArrays", False))
        for doc in docs:
            value = read(doc, None)
            if isinstance(value, list):
                if not value and preserve:
                    yield doc
                for item in value:
                    out = dict(doc)
                    out[field] = item
                    yield out
            elif value is SENTINEL_MISSING or value is None:
                if preserve:
                    yield doc
            else:
                yield doc

    def _stage_lookup(
        self, docs: Iterable[dict], spec: dict, stats: QueryStats
    ) -> Iterator[dict]:
        foreign = self._db.collection(spec["from"])
        if getattr(foreign, "sharded", False):
            raise UnsupportedOperationError(
                "$lookup requires the foreign collection to be unsharded"
            )
        as_field = spec["as"]
        if "pipeline" in spec:
            yield from self._lookup_pipeline(docs, foreign, spec, as_field, stats)
            return
        local_field = spec["localField"]
        foreign_field = spec["foreignField"]
        use_index = foreign.has_index(foreign_field)
        local, remote = compile_path(local_field), compile_path(foreign_field)
        for doc in docs:
            value = local(doc, None)
            matches: list[dict]
            if value is SENTINEL_MISSING or value is None:
                matches = []
            elif use_index:
                matches = []
                for match in foreign.index_lookup(foreign_field, value):
                    stats.index_entries += 1
                    stats.heap_fetches += 1
                    matches.append(match)
            else:
                matches = [
                    other for other in foreign.scan()
                    if remote(other, None) == value
                ]
                stats.heap_fetches += len(foreign)
            out = dict(doc)
            out[as_field] = matches
            yield out

    def _lookup_pipeline(
        self,
        docs: Iterable[dict],
        foreign: Collection,
        spec: dict,
        as_field: str,
        stats: QueryStats,
    ) -> Iterator[dict]:
        let_spec = spec.get("let", {})
        sub_pipeline = spec["pipeline"]
        probe_field = _index_probe_field(sub_pipeline, let_spec, foreign)
        bindings = [(name, compile_expr(expr)) for name, expr in let_spec.items()]
        # Sub-pipeline predicates compile once; ``let`` values arrive per
        # outer document as the closures' variables argument.
        predicate = compile_match(
            *(stage["$match"] for stage in sub_pipeline if "$match" in stage)
        )
        for doc in docs:
            variables = {name: fn(doc, None) for name, fn in bindings}
            if probe_field is not None:
                var_name = probe_field[1]
                value = variables.get(var_name, SENTINEL_MISSING)
                matches = []
                if value is not SENTINEL_MISSING and value is not None:
                    for match in foreign.index_lookup(probe_field[0], value):
                        stats.index_entries += 1
                        stats.heap_fetches += 1
                        matches.append(match)
            else:
                matches = [other for other in foreign.scan() if predicate(other, variables)]
                stats.heap_fetches += len(foreign)
            out = dict(doc)
            out[as_field] = matches
            yield out

    def _stage_out(self, docs: Iterable[dict], target: Any) -> Iterator[dict]:
        name = target if isinstance(target, str) else target["coll"]
        materialized = list(docs)
        self._db.replace_collection(name, materialized)
        return iter(())


# ----------------------------------------------------------------------
# Lookup probing and accumulators
# ----------------------------------------------------------------------


def _index_probe_field(
    sub_pipeline: list[dict], let_spec: dict, foreign: Collection
) -> tuple[str, str] | None:
    """Detect ``[{$match:{}}..., {$match:{$expr:{$eq:["$f","$$v"]}}}]``.

    Returns ``(foreign_field, variable_name)`` when the sub-pipeline is an
    index-probeable correlated equality — MongoDB's index nested-loop join.
    """
    effective = [stage for stage in sub_pipeline if stage != {"$match": {}}]
    if len(effective) != 1 or "$match" not in effective[0]:
        return None
    match = effective[0]["$match"]
    if list(match) != ["$expr"]:
        return None
    expr = match["$expr"]
    if not (isinstance(expr, dict) and list(expr) == ["$eq"]):
        return None
    left, right = expr["$eq"]
    if (
        isinstance(left, str)
        and left.startswith("$")
        and not left.startswith("$$")
        and isinstance(right, str)
        and right.startswith("$$")
    ):
        field, var = left[1:], right[2:]
        if var in let_spec and foreign.has_index(field):
            return field, var
    return None


def _keeps_what_group_reads(project: dict, group: dict) -> bool:
    """Whether inclusion-only *project* keeps every top-level field *group* reads."""
    kept = set()
    for field, value in project.items():
        if field == "_id" and value in (0, False):
            continue
        if value not in (1, True) or "." in field or field.startswith("$"):
            return False
        kept.add(field)
    if "_id" not in project:
        kept.add("_id")
    read = _fields_read(group)
    return read is not None and read <= kept


def _fields_read(spec: Any) -> set[str] | None:
    """The top-level fields an expression spec reads; None if it may read
    the whole document (``$$ROOT``, ``$$CURRENT`` or any other variable)."""
    if isinstance(spec, str):
        if spec.startswith("$$"):
            return None
        return {spec[1:].split(".", 1)[0]} if spec.startswith("$") else set()
    if isinstance(spec, dict):
        spec = list(spec.values())
    if not isinstance(spec, list):
        return set()
    read: set[str] = set()
    for member in spec:
        fields = _fields_read(member)
        if fields is None:
            return None
        read |= fields
    return read


#: MongoDB's accumulators onto the shared accumulator set.
_ACCUMULATORS = {"$sum": "SUM", "$max": "MAX", "$min": "MIN", "$avg": "AVG", "$stdDevPop": "STD"}
MONGO = scalar.DIALECTS["mongo"]


def _accumulator(spec: Any) -> Callable[[], Any]:
    """The accumulator factory of one ``$group`` member; a malformed one raises when called."""
    op = next(iter(spec), None) if isinstance(spec, dict) else None
    if op in _ACCUMULATORS and len(spec) == 1:
        return scalar.accumulator(_ACCUMULATORS[op], MONGO, op)
    if isinstance(spec, dict) and len(spec) == 1:
        message = f"unsupported accumulator {op!r}"
    else:
        message = f"accumulator must have one operator: {spec}"
    return functools.partial(scalar.raises(message), None, None)


def _compile_group_id(id_spec: Any) -> tuple[Compiled, Callable[[dict], Any]]:
    """``(group id builder, key builder)``; the key is ``hashable(group id)``.

    For a document-literal id (``{}``, ``{"f": "$f", ...}``) the key comes
    from the member values in pre-sorted name order, so no row builds and
    sorts a dict; the id itself is only built when a group is new.
    """
    group_id_of = compile_expr(id_spec)
    if not isinstance(id_spec, dict) or (
        len(id_spec) == 1 and next(iter(id_spec)).startswith("$")
    ):
        return group_id_of, lambda doc: scalar.hashable(group_id_of(doc, None))
    members = sorted(
        ((name, compile_expr(value)) for name, value in id_spec.items()),
        key=lambda member: member[0],
    )
    return group_id_of, lambda doc: tuple(
        [(name, scalar.hashable(fn(doc, None))) for name, fn in members]
    )
