"""``run.py compare A.json B.json``: did B get worse than A?

One row per (workload, end-to-end metric): both values, the ratio B/A
(its base is A), the bound the benchmark fixed, and a verdict:

- ``same``       — B is within the bound of A;
- ``better``     — B improved on A by more than the bound;
- ``worse``      — B is worse than A by more than the bound;
- ``unresolved`` — the pass-to-pass interquartile spread of either side
  is wider than the bound, so the runs cannot tell.

Exit status 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any

# The per-pass (or per-set-up) values each metric's spread is taken from.
_SPREAD_FROM = {
    "ops_per_s": lambda detail: [p["ops_per_s"] for p in detail["passes"]],
    "latency_ms_p50": lambda detail: [p["latency_ms_p50"] for p in detail["passes"]],
    "latency_ms_p95": lambda detail: [p["latency_ms_p95"] for p in detail["passes"]],
    "setup_s": lambda detail: detail["setups_s"],
}


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: float, b: float, better: str, bound: float, spreads: tuple[float, float]) -> str:
    if max(spreads) > bound:
        return "unresolved"
    change = b / a - 1.0 if a else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(a: dict[str, Any], b: dict[str, Any]) -> list[dict[str, Any]]:
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric in a["end_to_end"]:
            name = metric["name"]
            va, vb = entry_a["end_to_end"].get(name), entry_b["end_to_end"].get(name)
            if va is None or vb is None:
                rows.append({"workload": workload, "metric": name, "verdict": "worse", "a": va, "b": vb})
                continue
            values = _SPREAD_FROM.get(name, lambda detail: [])
            spreads = (spread(values(entry_a["detail"])), spread(values(entry_b["detail"])))
            rows.append(
                {
                    "workload": workload, "metric": name, "unit": metric["unit"], "a": va, "b": vb,
                    "ratio": vb / va if va else None, "bound": metric["bound"], "spread": spreads,
                    "verdict": verdict(va, vb, metric["better"], metric["bound"], spreads),
                }
            )  # fmt: skip
        fa, fb = entry_a["detail"]["failed_share"], entry_b["detail"]["failed_share"]
        rows.append(
            {
                "workload": workload, "metric": "failed_share", "unit": "ratio", "a": fa, "b": fb,
                "ratio": None, "bound": 0.0, "spread": (0.0, 0.0),
                "verdict": "worse" if fb > fa else "same",
            }
        )  # fmt: skip
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(
        f"{'workload':<18}{'metric':<16}{'A':>11}{'B':>11} {'unit':<6}"
        f"{'B/A':>8}{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict"
    )
    for row in rows:
        if "bound" not in row:
            print(f"{row['workload']:<18}{row['metric']:<16} missing on one side  worse")
            continue
        ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "-"
        print(
            f"{row['workload']:<18}{row['metric']:<16}{row['a']:>11.4g}{row['b']:>11.4g} "
            f"{row['unit']:<6}{ratio:>8}{row['bound']:>7.0%}{row['spread'][0]:>10.1%}"
            f"{row['spread'][1]:>10.1%}  {row['verdict']}"
        )
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"\n{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved (ratios are B over A)")
    return 1 if worse else 0
