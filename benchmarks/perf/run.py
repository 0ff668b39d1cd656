"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

    python benchmarks/perf/run.py --seed 11            # everything, one JSON
    python benchmarks/perf/run.py --workload full_scan --seed 11 \\
        --seconds 12 --trace 0                         # one run (driver form)
    python benchmarks/perf/run.py compare A.json B.json
    python benchmarks/perf/run.py --selftest

One run of one workload is one process with one client thread.  The full
command starts each workload in its own subprocess so ``REPRO_*`` knobs,
RSS and caches do not leak between workloads.  See README.md beside this
file for the load model and how to read the numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
LAYER_PRICE_KNOBS = {
    "REPRO_TRACE": "1",
    "REPRO_CACHE": "1",
    "REPRO_DEADLINE": "30",
    "REPRO_ADMISSION": "1",
    "REPRO_MEM_BUDGET": "64m",
    "REPRO_OPT_LEVEL": "2",
}
LAYER_PRICE_ROWS = 2000
LAYER_PRICE_OPS = 1000
LAYER_PRICE_REPEATS = 3


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bootstrap() -> None:
    """Make the checkout's ``repro`` importable, or refuse to run."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perf benchmark: no program to measure ({src}/repro is missing)")
    sys.path.insert(0, str(src))


def scrub_env() -> None:
    """No ``REPRO_*`` knob is inherited: a workload sets exactly its own."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


# ----------------------------------------------------------------------
# One workload, this process
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    scrub_env()
    bootstrap()
    from cells import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.environ.update(workload.env)  # before any engine or connector exists
    import measure

    rows = args.rows or workload.rows
    if args.trace:
        state, metrics, detail = measure.traced_run(workload, args.seed, rows, args.seconds, args.passes)
    else:
        state, metrics, detail = measure.untraced_run(
            workload, args.seed, rows, args.seconds, args.passes, args.fault
        )
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    summary = {
        "correct": not state.failures,
        "attempted": state.attempted,
        "failed": len(state.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


# ----------------------------------------------------------------------
# layer_price: one knob at a time on the point-lookup path
# ----------------------------------------------------------------------
def layer_price_child(args: argparse.Namespace) -> int:
    """Median op latency of the PostgreSQL point_lookup ops, this env."""
    bootstrap()
    from dataclasses import replace

    import measure
    from cells import WORKLOADS

    workload = replace(WORKLOADS["point_lookup"], backends=("postgres",))
    state, _ = measure.set_up(workload, args.seed, LAYER_PRICE_ROWS)
    del state.ops[LAYER_PRICE_OPS:]
    gc.collect()
    gc.freeze()
    measure.run_pass(state, full=True)
    gc.collect()
    latencies = measure.run_pass(state)
    print(json.dumps({
        "median_ms": measure.quantile(latencies, 0.5) * 1000.0,
        "attempted": state.attempted,
        "failed": len(state.failures),
        "failures": [str(failure) for failure in state.failures[:5]],
    }))  # fmt: skip
    return 1 if state.failures else 0


def layer_price(seed: int) -> dict[str, Any]:
    """``price_pct.<knob>``: median op latency with the knob on ÷ off − 1."""
    def best(knobs: dict[str, str]) -> tuple[float, int, int]:
        medians, attempted, failed = [], 0, 0
        for _ in range(LAYER_PRICE_REPEATS):
            env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
            env.update(knobs)
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--layer-price-child", "--seed", str(seed)],
                env=env, capture_output=True, text=True, timeout=170,
            )  # fmt: skip
            try:
                out = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                attempted, failed = attempted + LAYER_PRICE_OPS, failed + LAYER_PRICE_OPS
                continue
            medians.append(out["median_ms"])
            attempted, failed = attempted + out["attempted"], failed + out["failed"]
        return (min(medians) if medians else 0.0), attempted, failed

    base, attempted, failed = best({})
    table: dict[str, Any] = {"base_latency_ms_p50": base, "rows": LAYER_PRICE_ROWS, "knobs": {}}
    for knob, value in LAYER_PRICE_KNOBS.items():
        on, tried, bad = best({knob: value})
        attempted, failed = attempted + tried, failed + bad
        table["knobs"][f"{knob}={value}"] = {
            "latency_ms_p50": on,
            "price_pct": 100.0 * (on / base - 1.0) if base and on else None,
        }
    table["attempted"], table["failed"] = attempted, failed
    return table


# ----------------------------------------------------------------------
# Everything: each workload in its own subprocess, one JSON document
# ----------------------------------------------------------------------
def run_child(
    workload: str, seed: int, seconds: float, trace: int, detail: Path, extra: list[str], ops: int
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One workload run in a subprocess: (last-line summary, detail file).

    A child that dies without a result is not dropped: every op of its
    pass counts as attempted and failed.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--detail", str(detail), *extra,
    ]  # fmt: skip
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=175)
        summary = json.loads(done.stdout.strip().splitlines()[-1])
        return summary, json.loads(detail.read_text())
    except subprocess.TimeoutExpired:
        reason = "timed out"
    except (IndexError, ValueError, OSError):
        reason = f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
    finally:
        detail.unlink(missing_ok=True)
    failure = f"{workload} seed={seed} trace={trace}: subprocess gave no result ({reason})"
    summary = {"correct": False, "attempted": ops, "failed": ops, "metrics": {}}
    return summary, {"workload": workload, "failed_share": 1.0, "failures": [failure]}


def run_all(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    from report import print_report

    bootstrap()
    from cells import WORKLOADS

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds
    document: dict[str, Any] = {
        "benchmark": "perf",
        "seed": args.seed,
        "run_seconds": seconds,
        "end_to_end": spec["end_to_end"],
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        entry: dict[str, Any] = {"why": workload.why}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            scratch = out.with_name(f"{out.stem}.{name}.{trace}.tmp")
            summary, detail = run_child(
                name, args.seed, seconds, trace, scratch, [], workload.ops_per_pass
            )
            entry[key] = {k: v["value"] for k, v in summary["metrics"].items()}
            entry[f"{key}_run"] = {k: summary[k] for k in ("correct", "attempted", "failed")}
            entry["trace" if trace else "detail"] = detail
        document["workloads"][name] = entry
    document["layer_price"] = layer_price(args.seed)
    failed = sum(
        entry[f"{key}_run"]["failed"]
        for entry in document["workloads"].values()
        for key in ("end_to_end", "per_layer")
    ) + document["layer_price"]["failed"]
    document["failed"] = failed
    out.write_text(json.dumps(document, indent=1))
    print_report(document, spec)
    print(f"\nwrote {out}")
    if failed:
        print(f"FAILED: {failed} ops raised or answered wrongly", file=sys.stderr)
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        from compare import main as compare_main

        return compare_main(argv[1:])
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=11, help="seeds the op list only")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / "benchmarks" / "results" / "perf.json"))
    parser.add_argument("--selftest", action="store_true")
    # Used by the full run and the selftest, not by people:
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--rows", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--fault", choices=("wrong", "crash"), help=argparse.SUPPRESS)
    parser.add_argument("--layer-price-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selftest:
        from selftest import main as selftest_main

        return selftest_main(spec)
    if args.layer_price_child:
        return layer_price_child(args)
    if args.workload:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
