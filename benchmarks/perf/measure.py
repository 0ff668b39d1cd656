"""One workload in one process: set-up, warm-up, timed and traced passes.

Load model: closed loop, one client, one thread.  An *op* is the paper's
"total runtime" unit — construct the PolyFrame(s), build the expression,
run the action, receive the eager result — timed with ``perf_counter``.
A pass replays the workload's fixed op list; its time is the sum of its
op latencies, so the answer checks between ops are outside it.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import spans
from cells import CELLS, DATA2, WRITE, Op, Workload, build_ops, ops_hash
from oracle import Oracle, digest, norm
from repro.eager import EagerFrame
from systems import System, appended_record, build_systems

TWIN_CHECKS_PER_PASS = 20
MIN_PASSES = 3
SETUP_REPEATS = 3
KEPT_SPAN_OPS = 400  # spans of this many traced ops go into the JSON


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (any order, non-empty)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class Failure:
    workload: str
    backend: str
    op: str
    seed: int
    why: str

    def __str__(self) -> str:
        return f"{self.workload} {self.backend} {self.op} seed={self.seed}: {self.why}"


@dataclass
class State:
    """Everything one set-up produced."""

    workload: Workload
    seed: int
    rows: int
    systems: dict[str, System]
    oracle: Oracle
    ops: list[Op]
    digests: dict[int, Any] = field(default_factory=dict)
    examined: dict[str, tuple[int, int]] = field(default_factory=dict)
    twin_points: frozenset[int] = frozenset()
    serial: int = 0  # appends so far: every appended key is fresh
    attempted: int = 0
    failures: list[Failure] = field(default_factory=list)
    twin_checks: int = 0
    twin_mismatches: int = 0
    inject_wrong: bool = False

    def fail(self, op: Op, why: str) -> None:
        self.failures.append(
            Failure(self.workload.name, op.backend, f"#{op.index} {op.cell}{op.params}", self.seed, why)
        )


def set_up(workload: Workload, seed: int, rows: int) -> tuple[State, float]:
    """Generate, load, index, and compute the oracle's answers; timed."""
    started = perf_counter()
    records, systems = build_systems(workload, rows)
    oracle = Oracle(records)
    ops = build_ops(workload, seed, rows)
    cached = any(system.twin is not None for system in systems.values())
    for op in ops:
        if op.cell in (WRITE, "lookup"):
            continue
        if cached and op.dataset == DATA2:
            oracle.track(op)
        else:
            oracle.expected(op.cell, op.params)
    state = State(workload, seed, rows, systems, oracle, ops)
    if cached:
        # Fixed points of the pass at which the cache-off twin must agree.
        reads = [op.index for op in ops if op.cell != WRITE]
        step = max(1, len(reads) // TWIN_CHECKS_PER_PASS)
        state.twin_points = frozenset(reads[::step][:TWIN_CHECKS_PER_PASS])
    return state, perf_counter() - started


def _comparable(result: Any) -> Any:
    if isinstance(result, EagerFrame):
        return [norm(row) for row in result.to_records()]
    return result


def _run_read(op: Op, conn: Any) -> Any:
    cell = CELLS[op.cell]
    return cell.act(cell.form(conn, op.dataset, op.params))


def _judge(state: State, op: Op, result: Any, full: bool) -> None:
    """Check one answer, outside the timed interval."""
    if state.inject_wrong and op.index == 0 and op.cell != WRITE:
        result = -1
    oracle = state.oracle
    if full or op.cell == WRITE or oracle.tracked(op):
        problem = oracle.check(op, result)
        if full and op.cell != WRITE:
            state.digests[op.index] = digest(result)
    else:
        problem = None if digest(result) == state.digests.get(op.index) else "digest changed"
    if problem is not None:
        state.fail(op, problem)


def run_pass(state: State, *, full: bool = False) -> list[float]:
    """Replay the op list once; returns the per-op latencies in seconds."""
    systems = state.systems
    latencies: list[float] = []
    for op in state.ops:
        system = systems[op.backend]
        state.attempted += 1
        record = None
        if op.cell == WRITE:
            record = appended_record(state.rows, state.serial)
            state.serial += 1
        started = perf_counter()
        try:
            if record is not None:
                result = system.append(record)
            else:
                result = _run_read(op, system.connector)
            latencies.append(perf_counter() - started)
        except Exception as exc:  # a failed op is a result, not a crash
            latencies.append(perf_counter() - started)
            state.fail(op, f"{type(exc).__name__}: {exc}")
            continue
        if record is not None:
            state.oracle.note_append(op.backend, record)
        _judge(state, op, result, full)
        if full and record is None:
            log = system.connector.send_log
            rows_out = len(result) if isinstance(result, EagerFrame) else 1
            state.examined[op.key] = (log[-1].rows_scanned if log else 0, rows_out)
        if op.index in state.twin_points:
            state.twin_checks += 1
            if _comparable(_run_read(op, system.twin)) != _comparable(result):
                state.twin_mismatches += 1
                state.fail(op, "cache-off twin connector answered differently")
    for system in systems.values():
        # The logs are per-send bookkeeping; left alone they grow with
        # every pass and the later passes would measure the growth.
        system.connector.send_log.clear()
        system.connector.compile_log.clear()
        if system.twin is not None:
            system.twin.send_log.clear()
            system.twin.compile_log.clear()
    return latencies


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def run_traced_pass(
    state: State, recorder: spans.Recorder, op_base: int
) -> tuple[list[float], list[dict[str, Any]], int]:
    """Replay the op list with spans: latencies, per-op layers, retries."""
    systems = state.systems
    uninstall = spans.install(recorder, systems)
    latencies: list[float] = []
    layers: list[dict[str, Any]] = []
    try:
        for op in state.ops:
            system = systems[op.backend]
            state.attempted += 1
            recorder.op = op_base + op.index
            first = len(recorder.spans)
            try:
                if op.cell == WRITE:
                    record = appended_record(state.rows, state.serial)
                    state.serial += 1
                    root = recorder.open("op")
                    try:
                        result = system.append(record)
                    finally:
                        recorder.close(root)
                    state.oracle.note_append(op.backend, record)
                    lazy = None
                else:
                    cell = CELLS[op.cell]
                    root = recorder.open("op")
                    try:
                        formed = recorder.open("form")
                        try:
                            lazy = cell.form(system.connector, op.dataset, op.params)
                        finally:
                            recorder.close(formed)
                        result = cell.act(lazy)
                    finally:
                        recorder.close(root)
            except Exception as exc:
                span = recorder.spans[first]
                latencies.append(span[spans.END] - span[spans.START])
                state.fail(op, f"{type(exc).__name__}: {exc}")
                continue
            row = spans.account(recorder, first, root)
            latencies.append(row["op"])
            _judge(state, op, result, full=False)
            if op.cell == WRITE:
                continue
            plan = getattr(lazy, "plan", None)
            row["plan_nodes"] = sum(1 for _ in plan.walk()) if plan is not None else 0
            row["backend"], row["cell"], row["key"] = op.backend, op.cell, op.key
            row["frame"] = isinstance(result, EagerFrame)
            row["returned"] = len(result) if row["frame"] else 1
            if system.twin is not None and row["sends"] and not row["cache_hit"]:
                # The same query through the cache-off twin prices the miss.
                row["twin_send_s"] = _twin_send_seconds(op, system.twin)
            layers.append(row)
    finally:
        uninstall()
    retries = 0
    for system in systems.values():
        retries += sum(record.retries for record in system.connector.send_log)
        system.connector.send_log.clear()
        if system.twin is not None:
            system.twin.send_log.clear()
            system.twin.compile_log.clear()
    return latencies, layers, retries


def _twin_send_seconds(op: Op, twin: Any) -> float:
    """How long ``twin.send`` takes for *op*'s query (the cache-off send)."""
    original = twin.send
    seconds = [0.0]

    def timed(*args: Any, **kwargs: Any) -> Any:
        started = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds[0] = perf_counter() - started

    twin.send = timed
    try:
        _run_read(op, twin)
    finally:
        del twin.send
    return seconds[0]


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_summary(latencies: list[float]) -> dict[str, float]:
    seconds = sum(latencies)
    return {
        "seconds": seconds,
        "ops_per_s": len(latencies) / seconds,
        "latency_ms_p50": quantile(latencies, 0.50) * 1000.0,
        "latency_ms_p95": quantile(latencies, 0.95) * 1000.0,
    }


def cell_rows(state: State, passes: list[list[float]]) -> list[dict[str, Any]]:
    """Per (backend, cell): sample count, median, p95, rows examined."""
    by_key: dict[str, list[float]] = {}
    for latencies in passes:
        for op, latency in zip(state.ops, latencies):
            by_key.setdefault(op.key, []).append(latency)
    rows = []
    for key in sorted(by_key):
        samples = by_key[key]
        examined, returned = state.examined.get(key, (0, 0))
        rows.append(
            {
                "cell": key,
                "samples": len(samples),
                "latency_ms_p50": quantile(samples, 0.50) * 1000.0,
                "latency_ms_p95": quantile(samples, 0.95) * 1000.0,
                "rows_examined": examined,
                "rows_returned": returned,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Per-layer metrics from the traced passes
# ----------------------------------------------------------------------
SELF_LAYERS = ("form", "compile", "glue", "send_self", "engine", "coordinator_self", "materialize")
TRANSLATION_LAYERS = ("form", "compile", "glue", "send_self", "materialize")


def snapshot_counters(state: State) -> dict[str, int]:
    """Cumulative counters of the compile and result caches, summed."""
    total = {
        "compile_hits": 0, "compile_misses": 0, "compile_evictions": 0,
        "cache_hits": 0, "cache_misses": 0, "cache_invalidations": 0,
        "cache_evictions": 0, "cache_bytes": 0,
    }  # fmt: skip
    for system in state.systems.values():
        compiled = system.connector.compile_cache.stats()
        total["compile_hits"] += compiled["hits"]
        total["compile_misses"] += compiled["misses"]
        total["compile_evictions"] += compiled["evictions"]
        cache = system.connector.result_cache
        if cache is not None:
            stats = cache.stats()
            for name in ("hits", "misses", "invalidations", "evictions", "bytes"):
                total[f"cache_{name}"] += stats[name]
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _us(seconds: float) -> float:
    return seconds * 1e6


def layer_split(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Median self time per layer and each layer's share of the op time."""
    op_total = sum(row["op"] for row in rows)
    split: dict[str, Any] = {"ops": len(rows), "op_us_p50": _us(median([r["op"] for r in rows]))}
    for layer in SELF_LAYERS:
        split[f"{layer}_us_p50"] = _us(median([row[layer] for row in rows]))
        split[f"{layer}_share"] = _ratio(sum(row[layer] for row in rows), op_total)
    split["translation_share"] = sum(split[f"{layer}_share"] for layer in TRANSLATION_LAYERS)
    # The typical op instead of the time-weighted one: medians over medians.
    split["translation_share_p50"] = _ratio(
        sum(split[f"{layer}_us_p50"] for layer in TRANSLATION_LAYERS), split["op_us_p50"]
    )
    # The identity the span tree must satisfy: layers sum to the op.
    split["layers_over_op"] = sum(split[f"{layer}_share"] for layer in SELF_LAYERS)
    return split


def layer_metrics(
    rows: list[dict[str, Any]],
    counters: dict[str, int],
    traced_passes: int,
    retries: int,
    overhead_pct: float,
) -> tuple[dict[str, float], dict[str, float]]:
    """The ``per_layer`` metrics of BENCHMARK.json, and the rest.

    The second dict holds the times that only exist on some workloads
    (the cache's, the coordinator's, one engine's): they are reported in
    the JSON document, but a metric every workload must print cannot be a
    time that is 0 by construction on most of them.
    """
    sends = sum(row["sends"] for row in rows)
    compiles = sum(row["compiles"] for row in rows)
    hits = [row for row in rows if row["cache_hit"]]
    executed = [row for row in rows if not row["cache_hit"]]
    priced = [row["send_s"] - row["twin_send_s"] for row in rows if "twin_send_s" in row]
    sharded = [row for row in rows if row["shard_s"]]
    frames = [row for row in rows if row["frame"]]
    split = layer_split(rows)
    metrics = {
        "form_us": _us(median([row["form"] for row in rows])),
        "plan_nodes": _ratio(sum(row["plan_nodes"] for row in rows), len(rows)),
        "compile_us": _us(median([row["compile"] for row in rows])),
        "compile_cache_hit_rate": _ratio(sum(row["compile_hits"] for row in rows), compiles),
        "compile_cache_evictions": _ratio(counters["compile_evictions"], traced_passes),
        "query_chars": _ratio(sum(row["query_chars"] for row in rows), sends),
        "send_self_us": _us(median([row["send_self"] for row in rows])),
        "sends_per_op": _ratio(sends, len(rows)),
        "retries": float(retries),
        "cache_hit_rate": _ratio(
            counters["cache_hits"], counters["cache_hits"] + counters["cache_misses"]
        ),
        "cache_invalidations": _ratio(counters["cache_invalidations"], traced_passes),
        "cache_evictions": _ratio(counters["cache_evictions"], traced_passes),
        "cache_bytes": float(counters["cache_bytes"]),
        "engine_ms": median([row["engine"] for row in executed]) * 1e3,
        "rows_examined_per_row_returned": _ratio(
            sum(row["rows_examined"] for row in rows), sum(row["returned"] for row in executed)
        ),
        "vector_share": _ratio(
            sum(row["vector_sends"] for row in rows), sum(row["engine_sends"] for row in rows)
        ),
        "vector_batches": _ratio(
            sum(row["batches"] for row in rows), sum(row["vector_sends"] for row in rows)
        ),
        "coordinator_share": split["coordinator_self_share"],
        "shard_skew": median(
            [max(row["shard_s"]) / (sum(row["shard_s"]) / len(row["shard_s"])) for row in sharded]
        ),
        "merge_rows_in": _ratio(sum(row["merge_rows_in"] for row in sharded), len(sharded)),
        "materialize_us_per_row": _us(
            _ratio(sum(row["materialize"] for row in frames), sum(row["returned"] for row in frames))
        ),
        "translation_share": split["translation_share"],
        "translation_share_p50": split["translation_share_p50"],
        "engine_share": split["engine_share"],
        "trace_overhead_pct": overhead_pct,
    }
    extra = {
        "cache_hit_us": (_us(median([row["send_s"] for row in hits])), "us"),
        "cache_miss_penalty_us": (_us(median(priced)), "us"),
        "coordinator_self_ms": (median([row["coordinator_self"] for row in sharded]) * 1e3, "ms"),
        "shard_max_ms": (median([max(row["shard_s"]) for row in sharded]) * 1e3, "ms"),
    }
    for backend in sorted({row["backend"] for row in rows}):
        engine = [row["engine"] for row in executed if row["backend"] == backend]
        extra[f"engine_ms.{backend}"] = (median(engine) * 1e3, "ms")
    return metrics, {name: {"value": value, "unit": unit} for name, (value, unit) in extra.items()}


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def _time_boxed(seconds: float, fixed: int | None, minimum: int):
    """Yield pass numbers until the time box (or the fixed count) is used."""
    began = perf_counter()
    done = 0
    while (done < fixed) if fixed else (done < minimum or perf_counter() - began < seconds):
        yield done
        done += 1


def _settle() -> None:
    """The loaded data is static: keep it out of later collections."""
    gc.collect()
    gc.freeze()


def untraced_run(
    workload: Workload, seed: int, rows: int, seconds: float, passes: int | None, fault: str | None
) -> tuple[State, dict[str, float], dict[str, Any]]:
    """Set up (several times), warm up, time passes: the end-to-end metrics."""
    setups: list[float] = []
    state = None
    for _ in range(1 if passes else SETUP_REPEATS):
        state = None  # drop the previous set-up before building the next
        gc.collect()
        state, took = set_up(workload, seed, rows)
        setups.append(took)
    if fault == "crash":
        os._exit(3)
    state.inject_wrong = fault == "wrong"
    _settle()
    run_pass(state, full=True)  # warm-up: caches fill, answers verified
    timed = []
    for _ in _time_boxed(seconds, passes, MIN_PASSES):
        gc.collect()
        timed.append(run_pass(state))
    # The typical pass: every op at its median latency over the timed
    # passes.  A burst of interference slows some ops of some passes; it
    # would have to hit the same op in most passes to move these.
    typical = pass_summary([median(list(column)) for column in zip(*timed)])
    metrics = {
        "ops_per_s": typical["ops_per_s"],
        "latency_ms_p50": typical["latency_ms_p50"],
        "latency_ms_p95": typical["latency_ms_p95"],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": median(setups),
    }
    cells = cell_rows(state, timed)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "rows": rows,
        "env": workload.env,
        "ops_per_pass": len(state.ops),
        "ops_hash": ops_hash(state.ops),
        "passes": [pass_summary(latencies) for latencies in timed],
        "samples": sum(len(latencies) for latencies in timed),
        "setups_s": setups,
        "failed_share": len(state.failures) / state.attempted,
        "failures": [str(failure) for failure in state.failures[:20]],
        "twin_checks": state.twin_checks,
        "twin_mismatches": state.twin_mismatches,
        "data2_growth_pct": 100.0 * state.serial / rows,
        "cells": cells,
        "cell_geomean_ms": statistics.geometric_mean(row["latency_ms_p50"] for row in cells),
    }
    return state, metrics, detail


def traced_run(
    workload: Workload, seed: int, rows: int, seconds: float, passes: int | None
) -> tuple[State, dict[str, float], dict[str, Any]]:
    """Alternate untraced and traced passes: the per-layer metrics."""
    state, _ = set_up(workload, seed, rows)
    _settle()
    run_pass(state, full=True)
    recorder = spans.Recorder()
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, Any]] = []
    kept_spans: list[list] = []
    retries = 0
    counters = dict.fromkeys(snapshot_counters(state), 0)
    # Untraced and traced passes alternate, so both see the same drift.
    for number in _time_boxed(seconds, passes, 1):
        gc.collect()
        plain.append(sum(run_pass(state)))
        gc.collect()
        before = snapshot_counters(state)
        latencies, rows_of_pass, resent = run_traced_pass(state, recorder, number * len(state.ops))
        after = snapshot_counters(state)
        for name in counters:
            counters[name] += after[name] - before[name]
        counters["cache_bytes"] = after["cache_bytes"]  # a level, not a flow
        traced.append(sum(latencies))
        layers += rows_of_pass
        retries += resent
        if not kept_spans:
            kept_spans = recorder.export(KEPT_SPAN_OPS)
        recorder.reset()
    overhead_pct = 100.0 * (median(traced) / median(plain) - 1.0)
    metrics, extra = layer_metrics(layers, counters, len(traced), retries, overhead_pct)
    vectorized = any(row["vector_sends"] for row in layers)
    detail = {
        "workload": workload.name,
        "per_layer_extra": extra,
        "traced_passes": len(traced),
        "traced_pass_s": traced,
        "untraced_pass_s": plain,
        "layer_split": layer_split(layers),
        "layer_split_without_collect": layer_split(
            [row for row in layers if row["cell"] != "collect"]
        ),
        "layer_split_by_backend": {
            backend: layer_split([row for row in layers if row["backend"] == backend])
            for backend in workload.backends
        },
        # Named only where the vector engine answered something at all.
        "fallback_cells": sorted({row["key"] for row in layers if vectorized and row["fallback"]}),
        "failures": [str(failure) for failure in state.failures[:20]],
        "span_fields": ["op", "name", "parent", "start_us", "end_us", "drain_us"],
        "spans": kept_spans,
    }
    return state, metrics, detail
