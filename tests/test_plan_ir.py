"""Unit tests for the logical-plan layer.

Covers plan retargetability, the engine-side flattening of the nested
text PolyFrame sends, the compiled-query cache (and its surfacing
through QueryStats), true retargeting, the three-stage
``explain(verbose=True)``, the raw-query escape hatch, and the
``describe()`` numeric-inference fix.
"""

from __future__ import annotations

import pytest

from repro import (
    MongoDBConnector,
    PolyFrame,
    PostgresConnector,
)
from repro.core.plan import (
    BinaryExpr,
    ColumnExpr,
    Filter,
    Limit,
    LiteralExpr,
    RawQuery,
    Scan,
    plan_is_retargetable,
)
from repro.errors import ConnectorError, RewriteError
from repro.sqlengine import SQLDatabase


def _pred(name: str, value: int) -> BinaryExpr:
    return BinaryExpr("gt", ColumnExpr(name), LiteralExpr(value))


SCAN = Scan("Bench", "data")


# ----------------------------------------------------------------------
# Retargetability
# ----------------------------------------------------------------------
def test_retargetable_predicate_gate():
    assert plan_is_retargetable(Filter(SCAN, _pred("a", 1)))
    assert not plan_is_retargetable(RawQuery("SELECT 1"))


# ----------------------------------------------------------------------
# The engine, not the compiler, flattens PolyFrame's nested text
# ----------------------------------------------------------------------
def _logical(frame) -> list[str]:
    """The engine's logical plan for *frame*, one operator per line."""
    plan = frame.backend_plan().split("== logical ==\n", 1)[1].split("\n==", 1)[0]
    return [line.strip() for line in plan.splitlines()]


def test_three_filters_fuse_to_one(postgres):
    af = PolyFrame("Bench", "data", PostgresConnector(postgres))
    chained = af[af["ten"] > 2][af["two"] == 1][af["four"] == 1]
    assert chained.query.count("WHERE") == 3
    assert _logical(chained) == [
        "Project *",
        "Filter (((t.ten > 2) AND (t.two = 1)) AND (t.four = 1))",
        "Scan Bench.data AS t",
    ]


def test_filter_pushed_under_projection(postgres):
    af = PolyFrame("Bench", "data", PostgresConnector(postgres))
    assert _logical(af[["ten", "two"]][af["ten"] > 2]) == [
        "Project *", "ColumnRestrict t(ten, two)", "Filter (t.ten > 2)", "Scan Bench.data AS t",
    ]


def test_filter_not_pushed_when_predicate_reads_other_columns(postgres):
    af = PolyFrame("Bench", "data", PostgresConnector(postgres))
    assert _logical(af[["ten"]][af["two"] == 1]) == [
        "Project *", "Filter (t.two = 1)", "ColumnRestrict t(ten)", "Scan Bench.data AS t",
    ]


def test_limit_into_sort(postgres):
    connector = PostgresConnector(postgres)
    ordered = PolyFrame("Bench", "data", connector).sort_values("ten", ascending=False)
    text = ordered._compile(Limit(ordered.plan, 5)).text
    assert "Sort ten DESC (top 5)" in connector.explain(text)


# ----------------------------------------------------------------------
# Nesting depth of the generated text
# ----------------------------------------------------------------------
def test_mongo_depth_counts_pipeline_stages(mongodb):
    connector = MongoDBConnector(mongodb)
    query = PolyFrame("Bench", "data", connector)[["two", "four"]].query
    assert connector.nesting_depth(query) == 2  # empty $match + $project


# ----------------------------------------------------------------------
# Compiled-query cache
# ----------------------------------------------------------------------
def test_compile_cache_hits_on_repeated_plans(postgres):
    connector = PostgresConnector(postgres)
    af = PolyFrame("Bench", "data", connector)
    filtered = af[af["ten"] > 2]
    text_first = filtered.query
    assert connector.compile_cache.stats()["misses"] == 1
    assert connector.compile_cache.stats()["hits"] == 0
    # The same logical operations, phrased again, share the fingerprint.
    again = af[af["ten"] > 2]
    assert again.query == text_first
    assert connector.compile_cache.stats()["hits"] == 1
    assert connector.compile_cache.stats()["misses"] == 1


def test_cache_counters_surface_through_query_stats(postgres):
    connector = PostgresConnector(postgres)
    results = []
    original_send = connector.send

    def spy(query, collection, **kwargs):
        result = original_send(query, collection, **kwargs)
        results.append(result)
        return result

    connector.send = spy
    try:
        af = PolyFrame("Bench", "data", connector)
        len(af)
        len(af)
    finally:
        connector.send = original_send
    assert results[0].stats.compile_cache_misses == 1
    assert results[0].stats.compile_cache_hits == 0
    assert results[1].stats.compile_cache_hits == 1
    assert results[1].stats.compile_cache_misses == 0


def test_compile_log_records_every_compilation(postgres):
    connector = PostgresConnector(postgres)
    af = PolyFrame("Bench", "data", connector)
    mark = len(connector.compile_log)
    af.head(2)
    records = connector.compile_log[mark:]
    assert len(records) == 1
    assert not records[0].cache_hit
    assert records[0].compile_ms >= 0.0
    assert records[0].depth >= 1


# ----------------------------------------------------------------------
# Retargeting
# ----------------------------------------------------------------------
def test_retarget_recompiles_same_plan(all_connectors):
    pg = all_connectors["postgres"]
    adb = all_connectors["asterixdb"]
    af = PolyFrame("Bench", "data", pg)
    pipeline = af[af["ten"] > 5][["unique2", "ten"]]
    moved = pipeline.retarget(adb)
    assert moved.connector is adb
    assert moved.plan.fingerprint() == pipeline.plan.fingerprint()
    assert moved.query != pipeline.query  # different language...
    rows_pg = sorted(r["unique2"] for r in pipeline.collect().to_records())
    rows_adb = sorted(r["unique2"] for r in moved.collect().to_records())
    assert rows_pg == rows_adb  # ...same answer


def test_retarget_all_four_backends_agree(all_connectors):
    counts = set()
    for connector in all_connectors.values():
        af = PolyFrame("Bench", "data", connector)
        counts.add(len(af[af["onePercent"] >= 50]))
    assert len(counts) == 1


def test_retarget_refuses_raw_query_frames(all_connectors):
    pg = all_connectors["postgres"]
    af = PolyFrame("Bench", "data", pg)
    raw = af._with_query('SELECT * FROM Bench.data t WHERE t."ten" > 5')
    with pytest.raises(ConnectorError, match="cannot be retargeted"):
        raw.retarget(all_connectors["asterixdb"])


def test_retarget_validates_target_dataset(all_connectors):
    pg = all_connectors["postgres"]
    af = PolyFrame("Bench", "data", pg)
    missing = PolyFrame("Bench", "nope", pg, validate=False)
    assert missing.plan.fingerprint() == Scan("Bench", "nope").fingerprint()
    with pytest.raises(ConnectorError, match="does not exist"):
        missing.retarget(all_connectors["asterixdb"])
    # validate=False defers to action time.
    deferred = af.retarget(all_connectors["mongodb"], validate=False)
    assert deferred.connector is all_connectors["mongodb"]


# ----------------------------------------------------------------------
# explain()
# ----------------------------------------------------------------------
def test_explain_default_is_query_text(all_connectors):
    af = PolyFrame("Bench", "data", all_connectors["postgres"])
    assert af.explain() == af.query


def test_explain_verbose_three_stages(postgres):
    connector = PostgresConnector(postgres)
    af = PolyFrame("Bench", "data", connector)
    report = af[af["ten"] > 2].explain(verbose=True)
    assert "-- logical plan --" in report
    assert "Filter[(ten > 2)]" in report
    assert "Scan[Bench.data]" in report
    assert "-- generated query (PostgresConnector" in report
    assert "SELECT * FROM (" in report
    assert "-- backend plan --" in report


def test_explain_verbose_without_backend_plan(all_connectors):
    af = PolyFrame("Bench", "data", all_connectors["mongodb"])
    report = af.explain(verbose=True)
    assert "-- backend plan --" in report
    assert "unavailable" in report


# ----------------------------------------------------------------------
# Raw-query escape hatch
# ----------------------------------------------------------------------
def test_with_query_compiles_verbatim(all_connectors):
    pg = all_connectors["postgres"]
    af = PolyFrame("Bench", "data", pg)
    text = 'SELECT * FROM Bench.data t WHERE t."ten" > 5'
    raw = af._with_query(text)
    assert raw.query == text
    assert len(raw) == len(af[af["ten"] > 5])


def test_query_constructor_arg_is_raw_plan(postgres):
    connector = PostgresConnector(postgres)
    text = 'SELECT * FROM Bench.data t WHERE t."two" = 0'
    af = PolyFrame("Bench", "data", connector, text, validate=False)
    assert af.plan.fingerprint() == RawQuery(text).fingerprint()
    assert af.query == text
    # Further transformations still compose on top of the raw text.
    assert af.sort_values("unique1").query.startswith(text)


def test_rule_overlay_still_composes_with_plans(postgres):
    """User rule overrides at connection time apply to plan compilation."""
    connector = PostgresConnector(
        postgres,
        {"q6": "SELECT * FROM ($subquery) t WHERE ($statement)"},
    )
    af = PolyFrame("Bench", "data", connector)
    filtered = af[af["ten"] > 5]
    assert "WHERE (" in filtered.query
    plain = PolyFrame("Bench", "data", PostgresConnector(postgres))
    assert len(filtered) == len(plain[plain["ten"] > 5])


# ----------------------------------------------------------------------
# describe() numeric inference
# ----------------------------------------------------------------------
@pytest.fixture()
def people_connector(people):
    db = SQLDatabase(name="postgres")
    db.create_table("Test.people")
    db.insert("Test.people", people)
    return PostgresConnector(db)


def test_describe_sees_past_leading_nulls(people_connector):
    """Record 0 has no ``score``; one-record sampling used to miss it."""
    af = PolyFrame("Test", "people", people_connector)
    summary = af.describe()
    assert "score" in summary.columns
    assert "age" in summary.columns
    assert "name" not in summary.columns  # strings stay excluded
    assert "lang" not in summary.columns


def test_describe_caches_numeric_inference(people_connector):
    af = PolyFrame("Test", "people", people_connector)
    af.describe()
    queries_first = len(people_connector.send_log)
    af.describe()
    queries_second = len(people_connector.send_log) - queries_first
    # The second call skips the sampling query: only the aggregate runs.
    assert queries_second == 1


def test_describe_still_profiles_wisconsin(all_frames):
    for name, af in all_frames.items():
        summary = af.describe()
        assert "unique1" in summary.columns, name
