"""SQL++ / AsterixDB engine tests: open records, MISSING semantics, traits."""

from __future__ import annotations

import pytest

from repro.errors import CatalogError, ExecutionError
from repro.sqlpp import AsterixDB


@pytest.fixture()
def adb():
    db = AsterixDB(query_prep_overhead=0.0)
    db.create_dataverse("Test")
    db.create_dataset("Test", "Users", primary_key="id")
    records = []
    for i in range(300):
        record = {"id": i, "age": i % 30, "lang": ["en", "fr"][i % 2]}
        if i % 10 != 0:
            record["score"] = i % 5
        if i % 7 == 0:
            record["nickname"] = f"nick{i}"  # open schema: extra attribute
        records.append(record)
    db.load("Test.Users", records)
    db.create_index("Test.Users", "age")
    db.create_index("Test.Users", "score")
    return db


class TestDataverses:
    def test_dataset_requires_dataverse(self):
        db = AsterixDB()
        with pytest.raises(CatalogError):
            db.create_dataset("Nope", "Users", primary_key="id")

    def test_has_dataverse(self, adb):
        assert adb.has_dataverse("Test")
        assert not adb.has_dataverse("Other")


class TestSelectValue:
    def test_select_value_returns_bare_records(self, adb):
        result = adb.execute("SELECT VALUE t FROM Test.Users t LIMIT 2")
        assert isinstance(result.records[0], dict)
        assert result.records[0]["id"] == 0

    def test_select_value_scalar(self, adb):
        result = adb.execute("SELECT VALUE COUNT(*) FROM Test.Users t")
        assert result.records == [300]

    def test_select_value_expression(self, adb):
        result = adb.execute(
            "SELECT VALUE t.age + 1 FROM (SELECT VALUE t FROM Test.Users t) t LIMIT 3"
        )
        assert result.records == [1, 2, 3]

    def test_open_schema_attribute(self, adb):
        result = adb.execute(
            "SELECT VALUE t FROM (SELECT VALUE t FROM Test.Users t) t "
            "WHERE t.nickname = 'nick7' "
        )
        assert len(result) == 1 and result.records[0]["id"] == 7


class TestMissingSemantics:
    def test_is_missing_vs_is_null(self, adb):
        missing = adb.execute(
            "SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM Test.Users t) t "
            "WHERE score IS MISSING"
        ).scalar()
        null = adb.execute(
            "SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM Test.Users t) t "
            "WHERE score IS NULL"
        ).scalar()
        unknown = adb.execute(
            "SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM Test.Users t) t "
            "WHERE score IS UNKNOWN"
        ).scalar()
        assert missing == 30  # attribute absent entirely
        assert null == 0  # never explicitly null in this dataset
        assert unknown == 30

    def test_missing_vanishes_from_constructed_records(self, adb):
        result = adb.execute(
            "SELECT t.id, t.score FROM (SELECT VALUE t FROM Test.Users t) t "
            "WHERE t.id = 0"
        )
        assert result.records == [{"id": 0}]  # MISSING score omitted

    def test_missing_propagates_through_comparison(self, adb):
        # Rows with MISSING score satisfy neither = nor != (propagation).
        result = adb.execute(
            "SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM Test.Users t) t "
            "WHERE t.score = 1 OR t.score != 1"
        )
        assert result.scalar() == 270


class TestAsterixTraits:
    def test_count_uses_pk_index(self, adb):
        result = adb.execute("SELECT VALUE COUNT(*) FROM Test.Users t")
        assert result.stats.heap_fetches == 0
        assert result.stats.full_scans == 0

    def test_absent_not_in_secondary_index(self, adb):
        result = adb.execute(
            "SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM Test.Users t) t "
            "WHERE score IS UNKNOWN"
        )
        assert result.stats.full_scans == 1  # cannot answer from the index

    def test_no_index_only_min_max(self, adb):
        """AsterixDB evaluates MIN/MAX with scans (paper expressions 6/7)."""
        result = adb.execute(
            "SELECT MAX(age) FROM (SELECT age FROM (SELECT VALUE t FROM Test.Users t) t) t"
        )
        assert result.records == [{"max": 29}]
        assert result.stats.heap_fetches > 0

    def test_index_only_join_count(self, adb):
        result = adb.execute(
            "SELECT VALUE COUNT(*) FROM (SELECT l, r FROM Test.Users l "
            "JOIN Test.Users r ON l.age = r.age) t"
        )
        expected = sum(
            sum(1 for j in range(300) if j % 30 == i % 30) for i in range(300)
        )
        assert result.scalar() == expected
        assert result.stats.heap_fetches == 0

    def test_prep_overhead_configurable(self):
        fast = AsterixDB(query_prep_overhead=0.0)
        assert fast.query_prep_overhead == 0.0
        default = AsterixDB()
        assert default.query_prep_overhead > 0

    def test_filter_with_index(self, adb):
        result = adb.execute(
            "SELECT VALUE t FROM (SELECT VALUE t FROM Test.Users t) t WHERE t.age = 3"
        )
        assert all(record["age"] == 3 for record in result.records)
        assert result.stats.full_scans == 0


@pytest.mark.parametrize("exec_engine", ["row", "vector"])
@pytest.mark.parametrize("query, operator", [
    ("SELECT VALUE t FROM Test.Docs t ORDER BY t.m", "ORDER BY"),
    ("SELECT VALUE t FROM Test.Docs t ORDER BY t.m DESC LIMIT 2", "ORDER BY"),
    ("SELECT t.m, COUNT(*) AS c FROM Test.Docs t GROUP BY t.m", "GROUP BY"),
    ("SELECT COUNT(*) AS c FROM Test.Docs t GROUP BY t.m ORDER BY c", "GROUP BY"),
])
def test_a_map_valued_key_fails_its_operator(exec_engine, query, operator):
    """A map has no place in the key order: the operator fails, by name."""
    db = AsterixDB(query_prep_overhead=0.0, exec_engine=exec_engine)
    db.create_dataverse("Test")
    db.create_dataset("Test", "Docs", primary_key="id")
    db.load("Test.Docs", [{"id": i, "m": {"a": i % 3}} for i in range(6)])
    with pytest.raises(ExecutionError, match=f"cannot apply {operator} to dict"):
        db.execute(query)
