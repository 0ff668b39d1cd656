"""Benchmark harness tests: datasets, runner semantics, reports."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench import (
    EXPRESSIONS,
    benchmark_params,
    build_cluster_systems,
    build_systems,
    multi_node_scaleup_sizes,
    multi_node_speedup_records,
    pandas_memory_budget,
    run_expression,
    run_suite,
    single_node_sizes,
)
from repro.bench.expressions import Expression, expression
from repro.bench.report import (
    format_expression_table,
    format_scaling_table,
    format_speedup_table,
    speedup_series,
)
from repro.bench.runner import STATUS_OK, STATUS_OOM, STATUS_UNSUPPORTED
from repro.bench.systems import SystemUnderTest
from repro.core.connectors.base import SendRecord


class TestDatasets:
    def test_single_node_ratios(self):
        sizes = single_node_sizes(1000)
        by_name = {spec.name: spec.num_records for spec in sizes}
        assert by_name == {"XS": 1000, "S": 2500, "M": 5000, "L": 7500, "XL": 10000}

    def test_multi_node_sizes(self):
        assert multi_node_speedup_records(1000) == 10000
        assert multi_node_scaleup_sizes(1000) == {1: 10000, 2: 20000, 3: 30000, 4: 40000}

    def test_budget_scales_with_base(self):
        assert pandas_memory_budget(2000) > pandas_memory_budget(1000)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_XS_RECORDS", "123")
        assert single_node_sizes()[0].num_records == 123


class TestExpressions:
    def test_catalog_is_complete(self):
        assert [expr.id for expr in EXPRESSIONS] == list(range(1, 14))

    def test_lookup(self):
        assert expression(9).name == "Sort"
        with pytest.raises(KeyError):
            expression(99)

    def test_params_deterministic(self):
        assert benchmark_params(3) == benchmark_params(3)
        params = benchmark_params()
        assert 0 <= params.ten <= 9
        assert params.one_percent_high == params.one_percent_low + 9


@pytest.fixture(scope="module")
def small_systems(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return build_systems(
        300, tmp, prep_overheads=False, xs_records_for_budget=300
    )


class TestRunner:
    def test_all_systems_built(self, small_systems):
        assert set(small_systems) == {
            "Pandas",
            "PolyFrame-AsterixDB",
            "PolyFrame-PostgreSQL",
            "PolyFrame-MongoDB",
            "PolyFrame-Neo4j",
        }

    def test_measurement_fields(self, small_systems):
        params = benchmark_params()
        m = run_expression(small_systems["Pandas"], expression(1), params, dataset="XS")
        assert m.status == STATUS_OK
        assert m.creation_seconds > 0
        assert m.total_seconds == m.creation_seconds + m.expression_seconds

    def test_compile_metrics_recorded_for_polyframe(self, small_systems):
        params = benchmark_params()
        m = run_expression(
            small_systems["PolyFrame-PostgreSQL"], expression(3), params, dataset="XS"
        )
        assert m.status == STATUS_OK
        assert m.compile_ms > 0.0
        assert m.nesting_depth >= 1
        pandas_m = run_expression(small_systems["Pandas"], expression(3), params)
        assert pandas_m.compile_ms == 0.0  # the eager baseline compiles nothing
        assert pandas_m.nesting_depth == 0

    def test_polyframe_creation_is_cheap(self, small_systems):
        params = benchmark_params()
        pandas_m = run_expression(small_systems["Pandas"], expression(1), params)
        poly_m = run_expression(
            small_systems["PolyFrame-PostgreSQL"], expression(1), params
        )
        assert poly_m.creation_seconds < pandas_m.creation_seconds

    def test_suite_covers_grid(self, small_systems):
        params = benchmark_params()
        measurements = run_suite(
            {"Pandas": small_systems["Pandas"]}, EXPRESSIONS[:3], params, dataset="XS"
        )
        assert len(measurements) == 3

    def test_pandas_oom_on_large_dataset(self, tmp_path):
        # Budget sized for a 300-record XS; an M-sized (5x) load must fail.
        systems = build_systems(
            1500, tmp_path, which=("Pandas",), prep_overheads=False,
            xs_records_for_budget=300,
        )
        params = benchmark_params()
        m = run_expression(systems["Pandas"], expression(1), params, dataset="M")
        assert m.status == STATUS_OOM

    def test_pandas_survives_s_dataset(self, tmp_path):
        # S (2.5x) must complete every expression, as in the paper.
        systems = build_systems(
            750, tmp_path, which=("Pandas",), prep_overheads=False,
            xs_records_for_budget=300,
        )
        params = benchmark_params()
        for expr in EXPRESSIONS:
            m = run_expression(systems["Pandas"], expr, params, dataset="S")
            assert m.status == STATUS_OK, f"expression {expr.id}: {m.status}"

    def test_sharded_mongo_join_is_unsupported(self, tmp_path):
        systems = build_cluster_systems(2, 200, which=("PolyFrame-MongoDB",))
        params = benchmark_params()
        m = run_expression(systems["PolyFrame-MongoDB"], expression(12), params)
        assert m.status == STATUS_UNSUPPORTED

    def test_send_log_rolls_up_by_each_statistics_rule(self):
        records = [
            SendRecord(
                0.001, 0.001, attempts=2, outcome="ok", exec_engine="row",
                parallelism=4, peak_mem_bytes=300, spill_bytes=5,
                queue_wait_ms=0.5, deadline_budget_ms=40.0,
            ),
            SendRecord(
                0.001, 0.001, outcome="partial", shard_retries=1,
                exec_engine="vector", parallelism=2, peak_mem_bytes=100,
                spill_bytes=7, queue_wait_ms=1.25, deadline_budget_ms=25.0,
            ),
            SendRecord(0.001, 0.0, outcome="error"),
        ]
        connector = SimpleNamespace(send_log=[], compile_log=[], tracer=None)
        system = SystemUnderTest(
            "Stub", "polyframe", lambda: (None, None), connector=connector
        )
        expr = Expression(
            99, "stub", "", lambda df, df2, p, api: connector.send_log.extend(records)
        )
        m = run_expression(system, expr, benchmark_params())
        assert m.status == STATUS_OK
        assert m.retries == 2
        assert m.degraded
        assert m.exec_engine == "mixed"
        assert m.parallelism == 4
        assert m.peak_mem_bytes == 300
        assert m.spill_bytes == 12
        assert m.queue_wait_ms == 1.75
        assert m.deadline_budget_ms == 25.0


class TestReports:
    def make_measurements(self, small_systems):
        params = benchmark_params()
        return run_suite(small_systems, EXPRESSIONS[:2], params, dataset="XS")

    def test_expression_table(self, small_systems):
        table = format_expression_table(self.make_measurements(small_systems))
        assert "E1" in table and "Pandas" in table

    def test_scaling_table(self, small_systems):
        table = format_scaling_table(self.make_measurements(small_systems))
        assert "Expression 1" in table and "XS" in table

    def test_speedup_series_and_table(self, small_systems):
        params = benchmark_params()
        by_nodes = {}
        for nodes in (1, 2):
            systems = build_cluster_systems(
                nodes, 200, which=("PolyFrame-Greenplum",)
            )
            by_nodes[nodes] = run_suite(systems, EXPRESSIONS[:1], params)
        series = speedup_series(by_nodes)
        assert "PolyFrame-Greenplum" in series
        assert 1 in series["PolyFrame-Greenplum"][1]
        table = format_speedup_table(by_nodes)
        assert "Speedup" in table and "E1" in table


class TestCommittedTrajectory:
    """``BENCH_<pr>.json`` at the repo root: ``run.py``'s document, spans stripped."""

    ROOT = Path(__file__).resolve().parent.parent

    def test_every_bench_file_names_only_declared_workloads_and_metrics(self):
        spec = json.loads((self.ROOT / "BENCHMARK.json").read_text())
        workloads = {workload["name"] for workload in spec["workloads"]}
        declared = {
            section: {metric["name"] for metric in spec[section]}
            for section in ("end_to_end", "per_layer")
        }
        committed = sorted(self.ROOT.glob("BENCH_*.json"))
        assert committed, "no BENCH_<pr>.json committed"
        for path in committed:
            document = json.loads(path.read_text())
            assert '"spans"' not in path.read_text(), path.name
            assert {metric["name"] for metric in document["end_to_end"]} <= declared["end_to_end"]
            assert set(document["workloads"]) <= workloads, path.name
            for name, entry in document["workloads"].items():
                for section, names in declared.items():
                    assert set(entry[section]) <= names, (path.name, name, section)
                    assert entry[f"{section}_run"]["failed"] == 0, (path.name, name, section)
