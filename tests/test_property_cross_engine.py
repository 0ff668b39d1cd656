"""Property-based cross-engine agreement.

For randomly generated datasets and randomly chosen predicates, PolyFrame
over every backend must agree with a naive Python evaluation — the
strongest form of the paper's claim that one dataframe program means the
same thing on every target system.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AsterixDBConnector,
    MongoDBConnector,
    Neo4jConnector,
    PolyFrame,
    PostgresConnector,
)
from repro.docstore import MongoDatabase
from repro.graphdb import Neo4jDatabase
from repro.sqlengine import SQLDatabase
from repro.sqlpp import AsterixDB

records_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "a": st.integers(0, 20),
            "b": st.integers(-5, 5),
            "tag": st.sampled_from(["x", "y", "z"]),
        }
    ),
    min_size=1,
    max_size=40,
)


def build_frames(records):
    docs = [dict(record, id=index) for index, record in enumerate(records)]
    adb = AsterixDB(query_prep_overhead=0.0)
    adb.create_dataverse("P")
    adb.create_dataset("P", "d", primary_key="id")
    adb.load("P.d", docs)
    pg = SQLDatabase()
    pg.create_table("P.d", primary_key="id")
    pg.insert("P.d", docs)
    mongo = MongoDatabase(query_prep_overhead=0.0)
    mongo.create_collection("d")
    mongo.collection("d").insert_many(docs)
    neo = Neo4jDatabase(query_prep_overhead=0.0)
    neo.load("d", docs)
    return [
        PolyFrame("P", "d", AsterixDBConnector(adb)),
        PolyFrame("P", "d", PostgresConnector(pg)),
        PolyFrame("P", "d", MongoDBConnector(mongo)),
        PolyFrame("P", "d", Neo4jConnector(neo)),
    ]


@settings(max_examples=12, deadline=None)
@given(records_strategy, st.integers(0, 20))
def test_equality_filter_counts_agree(records, pivot):
    expected = sum(1 for record in records if record["a"] == pivot)
    for frame in build_frames(records):
        assert len(frame[frame["a"] == pivot]) == expected


@settings(max_examples=12, deadline=None)
@given(records_strategy, st.integers(0, 20), st.integers(0, 20))
def test_range_filter_counts_agree(records, low_raw, high_raw):
    low, high = min(low_raw, high_raw), max(low_raw, high_raw)
    expected = sum(1 for record in records if low <= record["a"] <= high)
    for frame in build_frames(records):
        assert len(frame[(frame["a"] >= low) & (frame["a"] <= high)]) == expected


@settings(max_examples=10, deadline=None)
@given(records_strategy)
def test_aggregates_agree(records):
    values = [record["a"] for record in records]
    for frame in build_frames(records):
        assert frame["a"].max() == max(values)
        assert frame["a"].min() == min(values)
        assert frame["a"].sum() == sum(values)
        assert frame["a"].count() == len(values)


@settings(max_examples=10, deadline=None)
@given(records_strategy)
def test_group_counts_agree(records):
    expected: dict[str, int] = {}
    for record in records:
        expected[record["tag"]] = expected.get(record["tag"], 0) + 1
    for frame in build_frames(records):
        result = frame.groupby("tag").agg("count").collect()
        count_col = next(c for c in result.columns if c.startswith("count"))
        got = {r["tag"]: r[count_col] for r in result.to_records()}
        assert got == expected


@settings(max_examples=10, deadline=None)
@given(records_strategy)
def test_sort_head_agrees(records):
    top = sorted((record["b"] for record in records), reverse=True)[:3]
    for frame in build_frames(records):
        result = frame.sort_values("b", ascending=False).head(3)
        assert result.column_values("b") == top


def build_profiling_variants(records):
    """One frame per row/vector engine.

    Both variants evaluate the same program, so their EXPLAIN ANALYZE
    row counts are directly comparable.
    """
    docs = [dict(record, id=index) for index, record in enumerate(records)]
    frames = []
    for exec_engine in ("row", "vector"):
        db = SQLDatabase(name=f"pg-{exec_engine}", exec_engine=exec_engine)
        db.create_table("P.d", primary_key="id")
        db.insert("P.d", docs)
        frames.append((exec_engine, PolyFrame("P", "d", PostgresConnector(db))))
    return frames


@settings(max_examples=10, deadline=None)
@given(records_strategy, st.integers(0, 20))
def test_explain_analyze_row_counts_differential(records, pivot):
    """EXPLAIN ANALYZE agrees across the row and vector engines.

    The differential form of the analyze-mode guarantee: every variant
    reports the same final row count (the naive Python answer), and no
    filtering operator ever *grows* its input.
    """
    expected = sum(1 for record in records if record["a"] <= pivot)
    for label, frame in build_profiling_variants(records):
        profiled = frame[frame["a"] <= pivot][["a", "tag"]].profile()
        assert len(profiled.frame) == expected, label
        root = profiled.profile
        assert root is not None, label
        assert root.rows_out == expected, label
        for node in root.walk():
            assert node.time_ns >= 0, label
            if node.rows_in is not None:
                is_filter = "Filter" in node.name or "Scan" in node.name
                if is_filter:
                    assert node.rows_out <= node.rows_in, (label, node.name)
