"""Shared benchmark fixtures.

Scale control: ``REPRO_BENCH_XS`` sets the XS record count (default 3000);
all other sizes keep the paper's Table IV ratios.  Every figure bench writes
its regenerated table to ``benchmarks/results/`` and prints it, so running

    pytest benchmarks/ --benchmark-only -s

reproduces each table/figure of the paper as text output.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import benchmark_params, build_systems, single_node_sizes

BENCH_XS = int(os.environ.get("REPRO_BENCH_XS", 3000))
RESULTS_DIR = Path(__file__).parent / "results"

#: Table IV ratios at bench scale.
SIZES = {spec.name: spec.num_records for spec in single_node_sizes(BENCH_XS)}


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def params():
    return benchmark_params()


@pytest.fixture(scope="session")
def bench_workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench-data")


@pytest.fixture(scope="session")
def systems_by_size(bench_workdir):
    """Systems under test per dataset size, built lazily and cached.

    After each build the live heap is frozen (``gc.freeze``): the loaded
    datasets are static for the rest of the session, and excluding their
    millions of objects from cyclic-GC scans keeps later timing
    measurements from degrading as the cache grows.
    """
    import gc

    cache: dict[str, dict] = {}

    def get(size_name: str):
        if size_name not in cache:
            cache[size_name] = build_systems(
                SIZES[size_name],
                bench_workdir,
                xs_records_for_budget=BENCH_XS,
            )
            gc.collect()
            gc.freeze()
        return cache[size_name]

    return get


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Persist and print one regenerated table/figure."""
    (results_dir / name).write_text(text + "\n")
    print(f"\n{'=' * 70}\n{name}\n{'=' * 70}\n{text}")
