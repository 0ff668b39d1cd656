"""The one stats schema: rules, mirrors and the docs table stay in step."""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from repro.bench.runner import Measurement
from repro.core.connectors.base import SendRecord
from repro.sqlengine.result import STAT_RULES, QueryStats

DOC = Path(__file__).resolve().parent.parent / "docs" / "observability.md"

#: SendRecord fields only the send knows (not mirrored from QueryStats).
SEND_OWN = {"real_seconds", "reported_seconds", "attempts", "outcome", "deadline_budget_ms"}
#: SendRecord fields renamed from (or derived from) QueryStats.
SEND_RENAMES = {
    "shard_retries": "retries",
    "cache_hits": "result_cache_hits",
    "cache_misses": "result_cache_misses",
}
#: The Measurement cell and its two timings: not statistics.
MEASUREMENT_CELL = {
    "system", "dataset", "expression_id", "status",
    "creation_seconds", "expression_seconds",
}
#: Measurement fields that are not folded from the send log.
MEASUREMENT_OWN = MEASUREMENT_CELL | {
    "degraded", "rows_per_sec", "compile_ms", "nesting_depth",
}


def names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def test_every_rule_names_a_real_field():
    assert set(STAT_RULES) <= names(QueryStats) | names(Measurement)
    assert set(STAT_RULES.values()) <= {"max", "label", "min_nonzero"}


def test_every_send_record_field_is_its_own_or_mirrors_query_stats():
    stats = QueryStats()
    for number, f in enumerate(fields(QueryStats), start=1):
        setattr(stats, f.name, f"label{number}" if f.type == "str" else number)
    record = SendRecord.from_stats(
        stats, queue_wait_ms=0.5, real_seconds=1.0, reported_seconds=2.0,
        attempts=3, outcome="ok", deadline_budget_ms=4.0,
    )
    for name in names(SendRecord) - SEND_OWN:
        value = getattr(record, name)
        if name == "rows_scanned":
            assert value == stats.heap_fetches + stats.index_entries
        elif name == "queue_wait_ms":
            assert value == 0.5 + stats.queue_wait_ms
        else:
            assert value == getattr(stats, SEND_RENAMES.get(name, name)), name
    assert record.deadline_budget_ms == 4.0


def test_every_rolled_measurement_column_exists_on_send_record():
    for name in names(Measurement) - MEASUREMENT_OWN:
        assert hasattr(SendRecord, name), name


def _doc_table() -> list[list[str]]:
    text = DOC.read_text().split("## Query statistics", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in text.splitlines() if line.startswith("| `")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def _named(row_name: str, cell: str) -> str | None:
    if cell == "✓":
        return row_name
    match = re.fullmatch(r"`(\w+)`", cell)
    return match.group(1) if match else None


def test_the_docs_table_is_the_declared_schema():
    table = _doc_table()
    columns = {QueryStats: set(), SendRecord: set(), Measurement: set()}
    for row in table:
        name = row[0].strip("`")
        merge = row[2]
        for cls, cell in zip(columns, row[3:6]):
            named = _named(name, cell)
            if named is not None:
                columns[cls].add(named)
        if name in STAT_RULES:
            assert merge == STAT_RULES[name], name
        elif name in names(QueryStats):
            assert merge == "sum", name
    assert len({row[0] for row in table}) == len(table)
    assert columns[QueryStats] == names(QueryStats)
    # The table lists deadline_budget_ms as a statistic; the rest of
    # SEND_OWN is documented on SendRecord itself.
    assert columns[SendRecord] == (names(SendRecord) - SEND_OWN) | {"deadline_budget_ms"}
    assert columns[Measurement] == names(Measurement) - MEASUREMENT_CELL
