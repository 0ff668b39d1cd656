"""Shared vectorized (batch-at-a-time) execution layer.

Every embedded engine in this reproduction interprets queries row at a
time over Python dicts, which caps throughput at per-row interpreter
overhead — the bottleneck PyTond (arXiv:2407.11616) and HiFrames
(arXiv:1704.02341) identify as the thing pushing dataframes into a
database runtime is supposed to remove.  This package is the batch
alternative those engines share:

- :mod:`repro.exec.batch` — the :class:`ColumnBatch` representation:
  per-column Python lists plus validity masks distinguishing VALID /
  NULL / MISSING, in fixed-size batches.
- :mod:`repro.exec.vectorops` — a vectorized expression evaluator whose
  null semantics match the row evaluator's exactly (three-valued logic,
  MISSING propagation, WHERE truthiness).
- :mod:`repro.exec.scalar` — the one definition of what operators,
  scalar functions and aggregates do, under every engine's dialect.
- :mod:`repro.exec.kernels` — the decorate-sort-undecorate ordering
  kernel shared by the engines and the cluster merge layer.
- :mod:`repro.exec.operators` — batch-at-a-time physical operators
  (scan, filter, project, hash aggregate, sort, top-k, limit, distinct)
  the SQL/SQL++ engines select per query (``REPRO_EXEC=vector``).
- :mod:`repro.exec.memory` — per-query :class:`MemoryBudget` accounting
  (``REPRO_MEM_BUDGET``), the :class:`SpillFile` run format, and the
  external-merge :class:`SpillSorter` / :class:`SpillableGroups` the
  blocking operators use to stay byte-identical under tiny budgets.

The row engines remain the default and the fallback for any plan shape
or expression the vector layer does not cover; the two paths are pinned
against each other by a randomized parity suite.  See
``docs/execution.md``.
"""

from repro.exec.batch import (
    DEFAULT_BATCH_SIZE,
    MASK_MISSING,
    MASK_NULL,
    MASK_VALID,
    ColumnBatch,
    Vector,
    concat_batches,
)
from repro.exec.kernels import sort_records
from repro.exec.memory import (
    MemoryBudget,
    SpillableGroups,
    SpillFile,
    SpillSorter,
    estimate_record_bytes,
    parse_budget,
)
from repro.exec.vectorops import VectorEvaluator

__all__ = [
    "ColumnBatch",
    "DEFAULT_BATCH_SIZE",
    "MASK_MISSING",
    "MASK_NULL",
    "MASK_VALID",
    "MemoryBudget",
    "SpillFile",
    "SpillSorter",
    "SpillableGroups",
    "Vector",
    "VectorEvaluator",
    "concat_batches",
    "estimate_record_bytes",
    "parse_budget",
    "sort_records",
]
