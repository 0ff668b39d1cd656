"""Plan-driven partial aggregation: rewrite shard queries for AVG/STDDEV.

A mean is not a mean of per-shard means, so ``AVG``/``STDDEV`` cannot be
merged from per-shard *finals* the way ``SUM``/``COUNT``/``MIN``/``MAX``
can.  They are still distributable: each shard ships the *partial state*
(sum, count, and sum-of-squares for STDDEV) and the coordinator combines
the partials and finalizes with the shared kernels
(:func:`~repro.exec.scalar.finalize_avg` /
:func:`~repro.exec.scalar.finalize_std`).

This module is the rewrite step.  :func:`plan_select` (SQL / SQL++) and
:func:`plan_pipeline` (Mongo aggregation pipelines) take the query a
single node would run and return ``(shard_query, merge_spec)``: when the
spec contains no decomposed output the query passes through *byte
identical*; otherwise the decomposed select items (or ``$group``
accumulators) are replaced by partial-state expressions rendered through
the backend's own rewrite rules — the ``[PARTIAL AGGREGATION]`` section
of ``sql.ini`` / ``sqlpp.ini`` / ``mongo.ini`` — so each dialect keeps
control of its syntax.  Partial columns are named ``__p<i>_s`` /
``__p<i>_c`` / ``__p<i>_ss`` by select-item position.

The splice is purely textual but structure-aware: the top-level select
list is located with a parenthesis- and quote-tracking scan (subqueries
and string literals are opaque), and the original aggregate argument is
reused verbatim, so identifier quoting survives untouched.
"""

from __future__ import annotations

import functools
import json
from typing import Any

from repro.cluster.merge import MergeSpec, spec_for_pipeline, spec_for_select
from repro.core.rewrite.engine import RewriteEngine
from repro.errors import UnsupportedOperationError
from repro.sqlengine.parser import parse

__all__ = ["plan_pipeline", "plan_select"]

#: Template rule per partial column suffix, in shipping order.
_PARTIAL_RULES = ("partial_sum", "partial_count", "partial_sumsq")


@functools.lru_cache(maxsize=None)
def _engine(language: str) -> RewriteEngine:
    return RewriteEngine(language)


# ----------------------------------------------------------------------
# Structure-aware text scanning (SQL / SQL++)
# ----------------------------------------------------------------------


def _find_top_level(text: str, needle: str, start: int = 0) -> int:
    """First occurrence of *needle* outside parentheses and quotes."""
    depth = 0
    quote: str | None = None
    i = start
    while i < len(text):
        ch = text[i]
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(needle, i):
            return i
        i += 1
    return -1


def _split_top_level(text: str) -> list[str]:
    """Split on commas outside parentheses and quotes."""
    parts: list[str] = []
    depth = 0
    quote: str | None = None
    start = 0
    for i, ch in enumerate(text):
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _call_argument(item_text: str) -> str:
    """The verbatim text between an aggregate call's outer parentheses."""
    open_index = item_text.find("(")
    if open_index < 0:
        raise UnsupportedOperationError(
            f"cannot locate the aggregate call in select item {item_text!r}"
        )
    depth = 0
    quote: str | None = None
    for i in range(open_index, len(item_text)):
        ch = item_text[i]
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return item_text[open_index + 1:i]
    raise UnsupportedOperationError(
        f"unbalanced parentheses in select item {item_text!r}"
    )


def _render_partials(language: str, arg: str, partial: Any) -> str:
    engine = _engine(language)
    columns = [partial.sum_col, partial.count_col]
    if partial.sumsq_col:
        columns.append(partial.sumsq_col)
    return ", ".join(
        engine.apply(rule, arg=arg, alias=alias)
        for rule, alias in zip(_PARTIAL_RULES, columns)
    )


@functools.lru_cache(maxsize=512)
def plan_select(query_text: str, language: str) -> tuple[str, MergeSpec]:
    """Derive ``(shard_query, merge_spec)`` for a SQL / SQL++ query.

    Queries whose outputs all merge from per-shard finals pass through
    byte-identical.  When the spec decomposes AVG/STDDEV outputs, the
    top-level select list is respliced: each decomposed item is replaced
    by its partial-state expressions rendered through the language's
    ``[PARTIAL AGGREGATION]`` rewrite rules, keeping the original
    aggregate argument text verbatim.
    """
    spec = spec_for_select(parse(query_text, language))
    if not spec.needs_rewrite:
        return query_text, spec
    if spec.select_value:
        raise UnsupportedOperationError(
            "cannot decompose AVG/STDDEV inside a SELECT VALUE query"
        )
    for prefix in ("SELECT VALUE ", "SELECT "):
        if query_text.startswith(prefix):
            break
    else:
        raise UnsupportedOperationError(
            f"cannot rewrite {query_text[:40]!r}... for partial aggregation"
        )
    from_index = _find_top_level(query_text, " FROM ", len(prefix))
    if from_index < 0:
        raise UnsupportedOperationError(
            "cannot locate the top-level FROM clause for partial aggregation"
        )
    select_list = query_text[len(prefix):from_index]
    items = _split_top_level(select_list)
    by_index = {partial.item_index: partial for partial in spec.partial_outputs}
    if max(by_index) >= len(items):
        raise UnsupportedOperationError(
            "select-list text does not line up with the parsed query"
        )
    rewritten: list[str] = []
    for index, item_text in enumerate(items):
        partial = by_index.get(index)
        if partial is None:
            rewritten.append(item_text.strip())
            continue
        arg = _call_argument(item_text)
        rewritten.append(_render_partials(language, arg, partial))
    shard_query = prefix + ", ".join(rewritten) + query_text[from_index:]
    return shard_query, spec


def plan_pipeline(
    pipeline: list[dict[str, Any]], *, sharded: bool = True
) -> tuple[list[dict[str, Any]], MergeSpec]:
    """Derive ``(shard_pipeline, merge_spec)`` for a Mongo pipeline.

    Pipelines whose accumulators all merge from per-shard finals pass
    through unchanged (the same list object).  ``$avg``/``$stdDevPop``
    accumulators in the final ``$group`` stage are replaced by
    partial-state accumulators rendered through ``mongo.ini``'s
    ``[PARTIAL AGGREGATION]`` rules, reusing the original operand
    expression verbatim.  ``sharded=False`` (a one-node cluster) is the
    identity plan: the one shard's answer is already final, whatever the
    pipeline holds — ``$lookup`` included.
    """
    if not sharded:
        return pipeline, MergeSpec(kind="concat")
    spec = spec_for_pipeline(pipeline)
    if not spec.needs_rewrite:
        return pipeline, spec
    group_index = max(i for i, stage in enumerate(pipeline) if "$group" in stage)
    group = pipeline[group_index]["$group"]
    # Conservative safety check: a later stage that references a
    # decomposed field (sort on the average, project it by name) would
    # see the partial columns instead — refuse rather than miscompute.
    later_text = json.dumps(pipeline[group_index + 1:])
    for partial in spec.partial_outputs:
        if f'"${partial.name}"' in later_text or f'"{partial.name}"' in later_text:
            raise UnsupportedOperationError(
                f"cannot distribute accumulator {partial.name!r}: a later "
                "pipeline stage references it"
            )
    engine = _engine("mongo")
    by_index = {partial.item_index: partial for partial in spec.partial_outputs}
    new_group: dict[str, Any] = {"_id": group.get("_id")}
    accumulators = [item for item in group.items() if item[0] != "_id"]
    for index, (name, acc) in enumerate(accumulators):
        partial = by_index.get(index)
        if partial is None:
            new_group[name] = acc
            continue
        op = next(iter(acc))
        arg = json.dumps(acc[op])
        columns = [partial.sum_col, partial.count_col]
        if partial.sumsq_col:
            columns.append(partial.sumsq_col)
        entries = ", ".join(
            engine.apply(rule, arg=arg, alias=alias)
            for rule, alias in zip(_PARTIAL_RULES, columns)
        )
        new_group.update(json.loads("{ " + entries + " }"))
    shard_pipeline = list(pipeline)
    shard_pipeline[group_index] = {"$group": new_group}
    return shard_pipeline, spec
