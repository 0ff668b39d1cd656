"""Benchmark execution and timing points.

The benchmark presents two timings per (system, expression), as in the
paper's Appendix D:

- **creation** — building the DataFrame object.  For Pandas this is
  ``read_json`` (the whole file is parsed and materialized); for PolyFrame
  it is connector initialization plus the ``q1`` rewrite, with no data
  movement.
- **expression** — evaluating the Table III expression against the frame.

Pandas runs under the benchmark memory budget; a budget violation is
recorded as status ``'oom'`` (the paper's M/L/XL outcome).  Operations a
backend cannot run (sharded MongoDB joins) record ``'unsupported'``.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, fields
from functools import partial, reduce
from typing import Any

from repro.bench.expressions import BenchParams, DataFrameAPI, Expression
from repro.bench.systems import SystemUnderTest
from repro.core.connectors.base import SendRecord
from repro.eager.memory import memory_budget
from repro.errors import MemoryBudgetExceeded, UnsupportedOperationError
from repro.obs import get_tracer
from repro.sqlengine.result import STAT_RULES, fold_stat

STATUS_OK = "ok"
STATUS_OOM = "oom"
STATUS_UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Measurement:
    """One timed (system, dataset, expression) cell.

    The first six fields are the cell and its two timings (see the
    module docstring).  ``degraded`` marks that at least one answer was
    partial (a shard was dropped under ``allow_partial=True``);
    ``compile_ms`` is the total plan-compilation time (optimizer +
    rewrite walking, or a cache probe on a hit) the expression spent, and
    ``nesting_depth`` the deepest query it compiled; ``rows_per_sec`` is
    the engine-side scan throughput (rows touched / engine-reported
    seconds, 0.0 when either is unknown).

    Every remaining column is the :class:`~repro.core.connectors.base.SendRecord`
    field of the same name, folded over the expression's sends by its
    rule in :data:`~repro.sqlengine.result.STAT_RULES` (``retries``
    counts connector and shard retries both).  All are 0/empty for the
    eager baseline, which has no connector; ``docs/observability.md``
    tabulates them.
    """

    system: str
    dataset: str
    expression_id: int
    status: str
    creation_seconds: float
    expression_seconds: float
    retries: int = 0
    degraded: bool = False
    failovers: int = 0
    hedges: int = 0
    compile_ms: float = 0.0
    nesting_depth: int = 0
    rows_per_sec: float = 0.0
    exec_engine: str = ""
    dispatch_mode: str = ""
    parallelism: int = 0
    peak_mem_bytes: int = 0
    spill_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    singleflight_waits: int = 0
    queue_wait_ms: float = 0.0
    deadline_budget_ms: float = 0.0
    cancelled: int = 0

    @property
    def total_seconds(self) -> float:
        """The paper's 'total runtime': creation plus expression."""
        return self.creation_seconds + self.expression_seconds


def run_expression(
    system: SystemUnderTest,
    expr: Expression,
    params: BenchParams,
    *,
    dataset: str = "",
) -> Measurement:
    """Create the frame(s), evaluate one expression, and time both."""
    api = DataFrameAPI()
    budget_ctx = (
        memory_budget(system.memory_budget)
        if system.memory_budget is not None
        else contextlib.nullcontext()
    )
    gc.collect()  # release frames from earlier expressions before charging
    with budget_ctx:
        started = time.perf_counter()
        try:
            df, df2 = system.create_frames()
        except MemoryBudgetExceeded:
            elapsed = time.perf_counter() - started
            return Measurement(system.name, dataset, expr.id, STATUS_OOM, elapsed, 0.0)
        creation = time.perf_counter() - started

        send_mark = len(system.connector.send_log) if system.connector is not None else 0
        compile_mark = (
            len(system.connector.compile_log) if system.connector is not None else 0
        )
        tracer, trace_mark = _trace_mark(system)
        started = time.perf_counter()
        try:
            expr.run(df, df2, params, api)
        except MemoryBudgetExceeded:
            elapsed = time.perf_counter() - started
            return Measurement(system.name, dataset, expr.id, STATUS_OOM, creation, elapsed)
        except UnsupportedOperationError:
            elapsed = time.perf_counter() - started
            return Measurement(
                system.name, dataset, expr.id, STATUS_UNSUPPORTED, creation, elapsed
            )
        finally:
            _tag_spans(tracer, trace_mark, system.name, dataset, expr.id)
        expression = time.perf_counter() - started
        expression = _adjust_for_simulated_parallelism(system, expression, send_mark)
        rolled = _roll_up(system, send_mark, compile_mark)
    return Measurement(
        system.name, dataset, expr.id, STATUS_OK, creation, expression, **rolled
    )


def _trace_mark(system: SystemUnderTest):
    """The active tracer (connector-scoped or process-wide) and its position."""
    tracer = getattr(system.connector, "tracer", None) if system.connector else None
    if tracer is None:
        tracer = get_tracer()
    if tracer is None or not tracer.enabled:
        return None, 0
    return tracer, len(tracer.spans)


def _tag_spans(tracer, trace_mark: int, system: str, dataset: str, expr_id: int) -> None:
    """Stamp the expression's new root spans with benchmark coordinates.

    The exported trace JSON then attributes every span tree to its
    (system, dataset, expression) cell, matching the CSV columns.
    """
    if tracer is None:
        return
    for span in tracer.spans[trace_mark:]:
        span.set(system=system, dataset=dataset, expression_id=expr_id)


def _adjust_for_simulated_parallelism(
    system: SystemUnderTest, wall_seconds: float, send_mark: int
) -> float:
    """Replace real send time with the engine-reported (parallel) elapsed.

    The cluster simulations report the wall time an N-node cluster would
    observe — under serial dispatch a simulated max-over-shards plus
    merge, under thread dispatch the measured concurrent dispatch time.
    For single-node engines the reported and real times are the same, so
    this adjustment is a no-op.
    """
    if system.connector is None:
        return wall_seconds
    records = system.connector.send_log[send_mark:]
    real = sum(record.real_seconds for record in records)
    reported = sum(record.reported_seconds for record in records)
    return max(0.0, wall_seconds - real + reported)


def _roll_up(
    system: SystemUnderTest, send_mark: int, compile_mark: int
) -> dict[str, Any]:
    """The expression's columns, from the sends and compiles it logged.

    Every column :class:`Measurement` shares with :class:`SendRecord`
    folds by its rule; only ``degraded``, ``rows_per_sec`` and the
    compile-log pair are derived here.  Empty (all defaults) for the
    eager baseline.
    """
    if system.connector is None:
        return {}
    rolled: dict[str, Any] = {}
    records = system.connector.send_log[send_mark:]
    if records:
        for name, rule in _ROLLED:
            rolled[name] = reduce(
                partial(fold_stat, rule), [getattr(record, name) for record in records]
            )
        rolled["degraded"] = any(record.outcome == "partial" for record in records)
        rows = sum(record.rows_scanned for record in records)
        reported = sum(record.reported_seconds for record in records)
        rolled["rows_per_sec"] = rows / reported if rows and reported > 0 else 0.0
    compiles = system.connector.compile_log[compile_mark:]
    if compiles:
        rolled["compile_ms"] = sum(record.compile_ms for record in compiles)
        rolled["nesting_depth"] = reduce(
            partial(fold_stat, STAT_RULES["nesting_depth"]),
            [record.depth for record in compiles],
        )
    return rolled


#: The columns folded from the send log: every :class:`Measurement` column
#: a :class:`SendRecord` also has (a field, or the ``retries`` property).
_ROLLED = tuple(
    (f.name, STAT_RULES.get(f.name, "sum"))
    for f in fields(Measurement)
    if hasattr(SendRecord, f.name)
)


def run_suite(
    systems: dict[str, SystemUnderTest],
    expressions: tuple[Expression, ...],
    params: BenchParams,
    *,
    dataset: str = "",
) -> list[Measurement]:
    """Run every expression on every system.

    A system whose DataFrame creation fails with OOM fails it for every
    expression; after the first observed creation OOM the remaining
    expressions are recorded directly (re-parsing a file that cannot fit
    costs the same every time and measures nothing new).
    """
    measurements = []
    for system in systems.values():
        creation_oom: Measurement | None = None
        for expr in expressions:
            if creation_oom is not None:
                measurements.append(
                    Measurement(
                        system.name, dataset, expr.id, STATUS_OOM,
                        creation_oom.creation_seconds, 0.0,
                    )
                )
                continue
            measurement = run_expression(system, expr, params, dataset=dataset)
            measurements.append(measurement)
            if measurement.status == STATUS_OOM and measurement.expression_seconds == 0.0:
                creation_oom = measurement
    return measurements


def verify_agreement(
    systems: dict[str, SystemUnderTest],
    expressions: tuple[Expression, ...],
    params: BenchParams,
) -> dict[int, dict[str, object]]:
    """Evaluate each expression everywhere and return the raw answers.

    Used by the integration tests: scalar-result expressions (counts,
    min/max) must agree exactly across every backend and the eager
    baseline.
    """
    api = DataFrameAPI()
    answers: dict[int, dict[str, object]] = {}
    for expr in expressions:
        per_system: dict[str, object] = {}
        for system in systems.values():
            df, df2 = system.create_frames()
            try:
                per_system[system.name] = expr.run(df, df2, params, api)
            except UnsupportedOperationError:
                per_system[system.name] = STATUS_UNSUPPORTED
        answers[expr.id] = per_system
    return answers
