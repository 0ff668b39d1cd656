"""Eager frame I/O: JSON loading with schema inference.

``read_json`` mirrors ``pandas.read_json``'s cost profile: the entire file is
parsed and materialized before the frame exists, so DataFrame-creation time
scales with the file size.  The benchmark's "total runtime" timing point
starts here.

Both JSON-lines (one object per line, as produced by the Wisconsin data
generator) and a single top-level JSON array are accepted.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable

from repro.eager.frame import EagerFrame
from repro.eager.memory import BYTES_BY_TYPE, GLOBAL_ACCOUNTANT, STRING_BYTES, estimate_value_bytes

#: Transient parse-buffer multiplier: while ``read_json`` converts parsed
#: records into columns, both representations are live, so peak memory
#: during creation exceeds the final frame size.  This is the mechanism
#: behind pandas' "5 to 10 times as much RAM as the size of your dataset"
#: rule that the paper quotes, and it is what makes the M/L/XL loads fail
#: at creation time under the benchmark's memory budget.
PARSE_BUFFER_FACTOR = 1.5


def read_json(path: str | os.PathLike) -> EagerFrame:
    """Load a JSON or JSON-lines file into an :class:`EagerFrame`.

    Schema inference takes the union of keys across all records; records
    lacking a key get ``None`` (the NaN stand-in) for that column, which is
    exactly how pandas surfaces missing JSON attributes.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.read(1)
        handle.seek(0)
        if first == "[":
            records = json.load(handle)
        else:
            records = [json.loads(line) for line in handle if line.strip()]
    transient = int(PARSE_BUFFER_FACTOR * _estimate_records_bytes(records))
    GLOBAL_ACCOUNTANT.charge(transient)
    try:
        return frame_from_records(records)
    finally:
        GLOBAL_ACCOUNTANT.release(transient)


def _estimate_records_bytes(records: list[dict[str, Any]]) -> int:
    """Approximate heap footprint of parsed record dicts."""
    total = 0
    for record in records:
        total += 64  # dict overhead
        for value in record.values():
            total += estimate_value_bytes(value)
    return total


def frame_from_records(records: Iterable[dict[str, Any]]) -> EagerFrame:
    """Build a frame from row dicts, inferring the column set.

    Column order is first-seen order, so homogeneous inputs keep their
    natural attribute order.  The same pass sums the accountant charge:
    :func:`~repro.eager.memory.estimate_column_bytes` over every column.
    """
    columns: dict[str, list[Any]] = {}
    items: list[tuple[str, list[Any]]] = []
    known = columns.keys()
    nbytes = 0
    rows = 0
    for record in records:
        if not isinstance(record, dict):
            raise TypeError(f"record {rows} is {type(record).__name__}, expected dict")
        if not known >= record.keys():
            for name in record:
                if name not in columns:
                    # Earlier rows lack the column: they hold None there.
                    columns[name] = [None] * rows
                    nbytes += BYTES_BY_TYPE[type(None)] * rows
            items = list(columns.items())
        for name, values in items:
            value = record.get(name)
            values.append(value)
            kind = type(value)
            if kind is str:
                nbytes += STRING_BYTES + len(value)
            else:
                size = BYTES_BY_TYPE.get(kind)
                nbytes += estimate_value_bytes(value) if size is None else size
        rows += 1
    length = rows if columns else 0  # a frame without columns has no rows
    return EagerFrame._adopt(columns, length, nbytes + 8 * rows * len(columns))
