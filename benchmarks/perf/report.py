"""Print one perf JSON document: every metric by name, with its unit."""

from __future__ import annotations

from typing import Any


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def print_report(document: dict[str, Any], spec: dict[str, Any]) -> None:
    end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"perf benchmark, op-list seed {document['seed']}, {document['run_seconds']} s per run")
    for name, entry in document["workloads"].items():
        detail, trace = entry["detail"], entry["trace"]
        print(f"\n== {name} ==  {entry['why']}")
        for failure in detail.get("failures", []) + trace.get("failures", []):
            print(f"  FAILED {failure}")
        if "passes" not in detail:
            continue
        run = entry["end_to_end_run"]
        print(
            f"  {len(detail['passes'])} passes x {detail['ops_per_pass']} ops at "
            f"{detail['rows']} rows; {detail['samples']} latency samples; "
            f"{run['attempted']} ops attempted, {run['failed']} failed"
        )
        for metric, value in entry["end_to_end"].items():
            print(f"  {metric:<32}{_fmt(value):>12} {end_units[metric]}")
        print(f"  {'failed_share':<32}{_fmt(detail['failed_share']):>12} ratio")
        if detail["twin_checks"]:
            print(
                f"  cache-off twin checks: {detail['twin_checks']}, "
                f"mismatches: {detail['twin_mismatches']}; data2 grew "
                f"{_fmt(detail['data2_growth_pct'])} %"
            )
        print("  -- per layer (traced passes; not gated) --")
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:<32}{_fmt(value):>12} {layer_units[metric]}")
        for metric, extra in trace.get("per_layer_extra", {}).items():
            if extra["value"]:  # times of layers this workload does not cross are left out
                print(f"  {metric:<32}{_fmt(extra['value']):>12} {extra['unit']}")
        split = trace.get("layer_split_by_backend", {})
        if split:
            print("  -- self time share of the op, per backend --")
            layers = ("form", "compile", "glue", "send_self", "engine", "coordinator_self", "materialize")
            heads = "".join(f"{x:>17}" for x in layers + ("translation", "translation_p50"))
            print(f"  {'backend':<11}{'op_us_p50':>10}{heads}")
            for backend, row in split.items():
                shares = "".join(f"{100 * row[f'{x}_share']:>16.1f}%" for x in layers + ("translation",))
                print(
                    f"  {backend:<11}{row['op_us_p50']:>10.0f}{shares}"
                    f"{100 * row['translation_share_p50']:>16.1f}%"
                )
        if trace.get("fallback_cells"):
            print(f"  row-engine fallback cells: {', '.join(trace['fallback_cells'])}")
        print(f"  -- per cell (geometric mean of medians {_fmt(detail['cell_geomean_ms'])} ms) --")
        print(f"  {'cell':<24}{'samples':>8}{'p50 ms':>11}{'p95 ms':>11}{'rows examined':>15}")
        for row in detail["cells"]:
            print(
                f"  {row['cell']:<24}{row['samples']:>8}{_fmt(row['latency_ms_p50']):>11}"
                f"{_fmt(row['latency_ms_p95']):>11}{row['rows_examined']:>15}"
            )
    price = document.get("layer_price")
    if price:
        print(
            f"\n== layer_price ==  PostgreSQL point_lookup ops at {price['rows']} rows, "
            f"one knob at a time (min of runs); base p50 {_fmt(price['base_latency_ms_p50'])} ms"
        )
        for knob, row in price["knobs"].items():
            print(
                f"  price_pct.{knob:<24}{_fmt(row['price_pct']):>10} %"
                f"   (p50 {_fmt(row['latency_ms_p50'])} ms)"
            )
