"""Measurement export: JSON and CSV for external plotting tools.

The text reports in :mod:`repro.bench.report` regenerate the paper's
figures; these helpers dump the raw measurements so users can plot them
with their own tooling.  One row per :class:`Measurement`, one column per
field, plus the derived ``total_seconds``.  A traced run's span trees
(``REPRO_TRACE=1`` or ``--trace-json``) go out through
:meth:`repro.obs.Tracer.export_json` instead.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
from typing import Sequence, get_type_hints

from repro.bench.runner import Measurement

#: Every field in declaration order, the derived total after the timings.
_COLUMNS = [f.name for f in fields(Measurement)]
_COLUMNS.insert(_COLUMNS.index("expression_seconds") + 1, "total_seconds")


def measurements_to_dicts(measurements: Sequence[Measurement]) -> list[dict]:
    """Plain-dict rows, one per measurement, with the derived total."""
    return [{name: getattr(m, name) for name in _COLUMNS} for m in measurements]


def to_json(measurements: Sequence[Measurement], *, indent: int = 2) -> str:
    """Serialize measurements as a JSON array."""
    return json.dumps(measurements_to_dicts(measurements), indent=indent)


def to_csv(measurements: Sequence[Measurement]) -> str:
    """Serialize measurements as CSV with a header row."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_COLUMNS)
    writer.writeheader()
    writer.writerows(measurements_to_dicts(measurements))
    return buffer.getvalue()


def from_json(text: str) -> list[Measurement]:
    """Rehydrate measurements exported by :func:`to_json`.

    Rows from older exports that lack a column get that column's default.
    """
    coerce = get_type_hints(Measurement)
    return [
        Measurement(**{name: coerce[name](row[name]) for name in coerce if name in row})
        for row in json.loads(text)
    ]
