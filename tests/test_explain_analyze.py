"""EXPLAIN ANALYZE correctness: timings, exact row counts, identical results.

Analyze mode must be a pure observer — every operator reports a
non-negative wall time and the exact rows it consumed/produced, and the
records returned are byte-identical to a normal (unprofiled) execution.
"""

from __future__ import annotations

import pytest

from repro import (
    AsterixDBConnector,
    MongoDBConnector,
    Neo4jConnector,
    PolyFrame,
    PostgresConnector,
)
from repro.obs import get_tracer
from repro.sqlengine import SQLDatabase
from repro.wisconsin import loaders

BACKENDS = ("asterixdb", "postgres", "mongodb", "neo4j")

CONNECTOR_CLASSES = {
    "asterixdb": AsterixDBConnector,
    "postgres": PostgresConnector,
    "mongodb": MongoDBConnector,
    "neo4j": Neo4jConnector,
}


@pytest.fixture(scope="module")
def sql_engines(wisconsin):
    """Private row and vector SQL engines (don't mutate session fixtures).

    Loaded without indexes so plans are scan-based and therefore run on
    the vector path when ``exec_engine='vector'`` (index scans fall back
    to the row engine).
    """
    engines = {}
    for exec_engine in ("row", "vector"):
        db = SQLDatabase(name=f"pg-{exec_engine}", exec_engine=exec_engine)
        loaders.load_postgres(db, "Bench", "data", wisconsin, indexes=False)
        engines[exec_engine] = db
    return engines


def frame_for(backend: str, request) -> PolyFrame:
    db = request.getfixturevalue(backend)
    return PolyFrame("Bench", "data", CONNECTOR_CLASSES[backend](db))


def assert_profile_invariants(profile) -> None:
    """Every node: time >= 0, counts >= 0, rows_in == sum(children out)."""
    assert profile is not None
    for node in profile.walk():
        assert node.time_ns >= 0
        assert node.rows_out >= 0
        if node.children:
            assert node.rows_in == sum(c.rows_out for c in node.children)
        else:
            assert node.rows_in is None


@pytest.mark.parametrize("exec_engine", ("row", "vector"))
def test_sql_profile_rows_exact_on_both_engines(sql_engines, exec_engine):
    df = PolyFrame("Bench", "data", PostgresConnector(sql_engines[exec_engine]))
    selected = df[df["ten"] < 5][["unique1", "ten"]]
    profiled = selected.profile()
    assert profiled.engine == exec_engine
    assert_profile_invariants(profiled.profile)
    # The root operator's output is exactly the rows the action returned.
    assert profiled.profile.rows_out == len(profiled.frame)
    # The filter discarded exactly the rows with ten >= 5 (half of 600).
    assert profiled.profile.rows_out == 300


def test_vector_profile_counts_batches(sql_engines):
    df = PolyFrame("Bench", "data", PostgresConnector(sql_engines["vector"]))
    profiled = df[df["ten"] < 5].profile()
    batched = [n for n in profiled.profile.walk() if n.batches]
    assert batched, "vector execution produced no batch-counting operators"
    for node in batched:
        assert node.batches > 0
    assert "batches=" in profiled.report()


@pytest.mark.parametrize("backend", BACKENDS)
def test_profile_every_backend(backend, request):
    """explain(analyze=True) works on all four backends with real counts."""
    df = frame_for(backend, request)
    selected = df[df["ten"] < 5]
    profiled = selected.profile()
    assert_profile_invariants(profiled.profile)
    assert profiled.profile.rows_out == len(profiled.frame) == 300
    report = selected.explain(analyze=True)
    assert "actual time=" in report
    assert "rows out=300" in report


@pytest.mark.parametrize("backend", BACKENDS)
def test_profiled_results_identical_to_collect(backend, request):
    """Analyze mode never changes answers (records byte-identical)."""
    df = frame_for(backend, request)
    selected = df[df["ten"] < 5][["unique1", "ten"]]
    assert selected.profile().frame.to_records() == selected.collect().to_records()


@pytest.mark.parametrize("exec_engine", ("row", "vector"))
def test_engine_analyze_results_identical(sql_engines, exec_engine):
    db = sql_engines[exec_engine]
    query = 'SELECT unique1, ten FROM "Bench"."data" WHERE ten < 5'
    plain = db.execute(query)
    analyzed = db.execute(query, analyze=True)
    assert analyzed.records == plain.records
    if get_tracer() is None:
        # Profiles only appear unrequested when tracing is on (REPRO_TRACE=1).
        assert plain.op_profile is None
    assert analyzed.op_profile is not None


def test_operator_names_in_report(sql_engines):
    df = PolyFrame("Bench", "data", PostgresConnector(sql_engines["row"]))
    report = df[df["ten"] < 5][["unique1", "ten"]].explain(analyze=True)
    assert "Project" in report
    assert "Scan" in report  # IndexScan or SeqScan depending on indexes
    assert report.splitlines()[0].startswith("== operator profile (PostgresConnector")


def test_docstore_and_graph_operator_names(request):
    mongo = frame_for("mongodb", request)
    report = mongo[mongo["ten"] < 5].explain(analyze=True)
    assert "Scan" in report and "$match" in report
    graph = frame_for("neo4j", request)
    report = graph[graph["ten"] < 5].explain(analyze=True)
    assert "Match" in report


@pytest.mark.parametrize(
    "build, columns",
    [
        (lambda df: df.groupby("oddOnePercent").agg("count"), "oddOnePercent"),
        (lambda df: df.groupby("twenty")["four"].agg("max"), "twenty, four"),
    ],
    ids=["E4", "E8"],
)
def test_graph_scan_aggregate_is_one_profile_node(build, columns, request):
    """The fused label-scan → aggregate loop names its pattern and columns."""
    fresh = lambda: build(frame_for("neo4j", request))  # noqa: E731 - a cache per connector
    profiled = fresh().profile()
    assert_profile_invariants(profiled.profile)
    names = [node.name for node in profiled.profile.walk()]
    assert names == ["Return", f"Match(t:data)+Aggregate[cols: {columns}]"]
    assert profiled.profile.children[0].rows_out == len(profiled.frame)
    assert profiled.frame.to_records() == fresh().collect().to_records()
    assert f"Aggregate[cols: {columns}]" in fresh().explain(analyze=True)
