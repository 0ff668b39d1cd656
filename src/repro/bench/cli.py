"""Command-line benchmark driver: ``python -m repro.bench``.

Subcommands mirror the paper's evaluation sections:

- ``single-node`` — Figures 5-8: the 13 expressions on Pandas + four
  PolyFrame backends across the XS-XL sizes.
- ``speedup`` / ``scaleup`` — Figures 9-10 on the 1-4 node cluster
  simulations.
- ``queries`` — Table I: the rewritten operation chain per language.

Examples::

    python -m repro.bench single-node --xs 2000 --sizes XS,S
    python -m repro.bench speedup --xs 1000
    python -m repro.bench queries
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile

from repro.bench.datasets import SINGLE_NODE_RATIOS
from repro.bench.expressions import EXPRESSIONS, benchmark_params
from repro.bench.report import (
    format_scaleup_table,
    format_scaling_table,
    format_speedup_table,
)
from repro.bench.runner import run_suite
from repro.bench.systems import build_cluster_systems, build_systems
from repro.obs import Tracer, get_tracer, set_global_tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the PolyFrame DataFrame benchmark (paper §IV).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--xs", type=int, default=2000,
        help="XS record count; other sizes follow the paper's ratios (default 2000)",
    )
    common.add_argument("--seed", type=int, default=7, help="parameter seed")
    common.add_argument(
        "--trace-json", default=None, metavar="PATH",
        help="export the run's trace spans as JSON (implies tracing on)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    single = subparsers.add_parser("single-node", parents=[common], help="Figures 5-8")
    single.add_argument(
        "--sizes", default="XS,S,M,L,XL",
        help="comma-separated subset of XS,S,M,L,XL",
    )
    single.add_argument(
        "--expressions", default="1-13",
        help="expression ids, e.g. '1,5,9' or '1-13'",
    )
    single.add_argument(
        "--timing", choices=("total", "expression"), default="total",
        help="which of the paper's two timing points to print",
    )

    speedup = subparsers.add_parser("speedup", parents=[common], help="Figure 9 (1-4 nodes, fixed data)")
    speedup.add_argument("--nodes", default="1,2,3,4")

    scaleup = subparsers.add_parser("scaleup", parents=[common], help="Figure 10 (data grows with nodes)")
    scaleup.add_argument("--nodes", default="1,2,3,4")

    subparsers.add_parser("queries", help="Table I: rewrites per language")

    args = parser.parse_args(argv)
    params = benchmark_params(getattr(args, "seed", 7))

    if args.command == "single-node":
        return _single_node(args, params)
    if args.command == "speedup":
        return _cluster(args, params, mode="speedup")
    if args.command == "scaleup":
        return _cluster(args, params, mode="scaleup")
    return _queries()


@contextlib.contextmanager
def _tracing(path: str | None):
    """Trace the suite when ``--trace-json`` asks for it.

    Reuses the process-wide tracer if ``REPRO_TRACE=1`` already installed
    one; otherwise installs a fresh one for the duration of the run and
    restores the previous state afterwards.
    """
    if path is None:
        yield
        return
    tracer = get_tracer()
    installed = tracer is None or not tracer.enabled
    if installed:
        tracer = Tracer()
        set_global_tracer(tracer)
    try:
        yield
    finally:
        tracer.export_json(path)
        print(f"wrote {len(tracer.spans)} trace span trees to {path}", file=sys.stderr)
        if installed:
            set_global_tracer(None)


def _parse_expressions(spec: str):
    ids: set[int] = set()
    for piece in spec.split(","):
        if "-" in piece:
            low, high = piece.split("-")
            ids.update(range(int(low), int(high) + 1))
        else:
            ids.add(int(piece))
    return tuple(expr for expr in EXPRESSIONS if expr.id in ids)


def _single_node(args, params) -> int:
    sizes = [name.strip().upper() for name in args.sizes.split(",")]
    unknown = [name for name in sizes if name not in SINGLE_NODE_RATIOS]
    if unknown:
        print(f"unknown sizes: {unknown}", file=sys.stderr)
        return 2
    expressions = _parse_expressions(args.expressions)
    measurements = []
    with _tracing(args.trace_json), tempfile.TemporaryDirectory() as workdir:
        for size in sizes:
            count = int(args.xs * SINGLE_NODE_RATIOS[size])
            print(f"loading {size} ({count:,} records)...", file=sys.stderr)
            systems = build_systems(count, workdir, xs_records_for_budget=args.xs)
            measurements.extend(run_suite(systems, expressions, params, dataset=size))
    print(format_scaling_table(measurements, timing=args.timing))
    return 0


def _cluster(args, params, mode: str) -> int:
    nodes_list = [int(n) for n in args.nodes.split(",")]
    records = args.xs * 10
    by_nodes = {}
    with _tracing(args.trace_json):
        for nodes in nodes_list:
            count = records * nodes if mode == "scaleup" else records
            print(f"loading {nodes}-node cluster ({count:,} records)...", file=sys.stderr)
            systems = build_cluster_systems(nodes, count)
            by_nodes[nodes] = run_suite(systems, EXPRESSIONS, params, dataset=f"{nodes}n")
    if mode == "speedup":
        print(format_speedup_table(by_nodes))
    else:
        print(format_scaleup_table(by_nodes))
    return 0


def _queries() -> int:
    from repro.core.rewrite import RewriteEngine

    for language in ("sqlpp", "sql", "mongo", "cypher"):
        rw = RewriteEngine(language)
        anchor = rw.apply("q1", namespace="Test", collection="Users")
        left = "lang" if language == "mongo" else rw.apply("single_attribute", attribute="lang")
        statement = rw.apply("eq", left=left, right=rw.literal("en"))
        filtered = rw.apply("q6", subquery=anchor, statement=statement)
        entries = rw.join_list(
            [rw.apply("project_attribute", attribute=a) for a in ("name", "address")]
        )
        projected = rw.apply("q2", subquery=filtered, attribute_list=entries)
        final = rw.apply("limit", subquery=projected, num=10)
        print(f"--- {language} ---")
        print(final)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
