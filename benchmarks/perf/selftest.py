"""``run.py --selftest``: the benchmark checks itself (N = 500, one pass).

- the op list of a seed is byte-stable, and differs for another seed;
- workload and metric names agree with BENCHMARK.json and are plain;
- the correctness gate fires when a wrong answer is injected;
- a workload subprocess that crashes is counted as failed ops.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path
from typing import Any

ROWS = 500
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def main(spec: dict[str, Any]) -> int:
    import run

    run.bootstrap()
    from cells import WORKLOADS, build_ops, ops_hash

    problems: list[str] = []

    def expect(condition: bool, what: str) -> None:
        print(("ok    " if condition else "FAIL  ") + what)
        if not condition:
            problems.append(what)

    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    expect(
        declared == {w.name: w.why for w in WORKLOADS.values()},
        "workloads and their reasons match BENCHMARK.json",
    )
    names = list(declared) + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(all(NAME.fullmatch(name) for name in names), "every name matches [A-Za-z0-9_.-]+")
    expect(len(set(names)) == len(names), "every name is used once")

    for workload in WORKLOADS.values():
        first = ops_hash(build_ops(workload, 11, ROWS))
        again = ops_hash(build_ops(workload, 11, ROWS))
        other = ops_hash(build_ops(workload, 12, ROWS))
        expect(
            first == again and first != other,
            f"{workload.name}: op list {first} is stable for seed 11, {other} for seed 12",
        )

    with tempfile.TemporaryDirectory(dir=run.ROOT / "benchmarks" / "perf") as scratch:
        small = ["--rows", str(ROWS), "--passes", "1"]
        for workload in WORKLOADS.values():
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                summary, detail = run.run_child(
                    workload.name, 11, 1, trace, Path(scratch) / "d.json", small, workload.ops_per_pass
                )
                wanted = {m["name"]: m["unit"] for m in spec[section]}
                got = {name: m["unit"] for name, m in summary["metrics"].items()}
                expect(
                    summary["correct"] and summary["failed"] == 0 and got == wanted,
                    f"{workload.name} trace={trace}: {summary['attempted']} ops right, "
                    f"{len(got)} metrics named as in BENCHMARK.json"
                    + "".join(f" [{f}]" for f in detail.get("failures", [])[:2]),
                )
        summary, detail = run.run_child(
            "full_scan", 11, 1, 0, Path(scratch) / "d.json", small + ["--fault", "wrong"], 58
        )
        named = detail.get("failures", [""])[0]
        expect(
            not summary["correct"] and summary["failed"] >= 1 and "full_scan" in named and "seed=11" in named,
            f"an injected wrong answer fails the gate: {named}",
        )
        summary, detail = run.run_child(
            "full_scan", 11, 1, 0, Path(scratch) / "d.json", small + ["--fault", "crash"], 58
        )
        expect(
            not summary["correct"] and summary["failed"] == summary["attempted"] == 58,
            f"a crashed subprocess counts as failed ops: {detail['failures'][0]}",
        )
    print(f"selftest: {len(problems)} problems")
    return 1 if problems else 0
