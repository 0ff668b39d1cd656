"""End-to-end SQL engine tests: execution semantics and plan selection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.sqlengine import OptimizerFeatures, SQLDatabase


@pytest.fixture()
def db():
    database = SQLDatabase()
    database.create_table("Test.Users", primary_key="id")
    database.insert(
        "Test.Users",
        [
            {
                "id": i,
                "age": i % 40,
                "lang": ["en", "fr", "de"][i % 3],
                "name": f"user{i}",
                "score": None if i % 10 == 0 else i % 7,
            }
            for i in range(400)
        ],
    )
    database.create_index("Test.Users", "age")
    database.create_index("Test.Users", "lang")
    database.create_index("Test.Users", "score")
    database.analyze("Test.Users")
    return database


class TestBasicQueries:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM Test.Users t LIMIT 3")
        assert len(result) == 3
        assert set(result.records[0]) == {"id", "age", "lang", "name", "score"}

    def test_projection(self, db):
        result = db.execute("SELECT t.name, t.age FROM Test.Users t LIMIT 1")
        assert set(result.records[0]) == {"name", "age"}

    def test_count(self, db):
        assert db.execute("SELECT COUNT(*) FROM Test.Users t").scalar() == 400

    def test_where_filters(self, db):
        result = db.execute("SELECT * FROM Test.Users t WHERE t.lang = 'en'")
        assert len(result) == 134
        assert all(r["lang"] == "en" for r in result.records)

    def test_compound_predicate(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM Test.Users t WHERE t.age > 10 AND t.lang = 'fr'"
        )
        expected = len([i for i in range(400) if i % 40 > 10 and i % 3 == 1])
        assert result.scalar() == expected

    def test_or_predicate(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM Test.Users t WHERE t.age = 0 OR t.age = 1"
        )
        assert result.scalar() == 20

    def test_aggregates(self, db):
        result = db.execute(
            "SELECT MIN(age), MAX(age), SUM(age), AVG(age), COUNT(age) FROM Test.Users t"
        )
        record = result.records[0]
        assert record["min"] == 0 and record["max"] == 39
        assert record["count"] == 400
        assert record["avg"] == pytest.approx(19.5)

    def test_aggregate_skips_nulls(self, db):
        result = db.execute("SELECT COUNT(score) FROM Test.Users t")
        assert result.scalar() == 360

    def test_group_by(self, db):
        result = db.execute(
            "SELECT lang, COUNT(lang) AS cnt FROM Test.Users t GROUP BY lang"
        )
        counts = {r["lang"]: r["cnt"] for r in result.records}
        assert counts == {"en": 134, "fr": 133, "de": 133}

    def test_group_by_max(self, db):
        result = db.execute(
            "SELECT lang, MAX(age) AS m FROM Test.Users t GROUP BY lang"
        )
        assert all(r["m"] == 39 for r in result.records)

    def test_order_by_limit(self, db):
        result = db.execute(
            "SELECT * FROM Test.Users t ORDER BY age DESC LIMIT 5"
        )
        assert [r["age"] for r in result.records] == [39] * 5

    def test_order_by_ascending(self, db):
        result = db.execute("SELECT * FROM Test.Users t ORDER BY id LIMIT 3")
        assert [r["id"] for r in result.records] == [0, 1, 2]

    def test_offset(self, db):
        result = db.execute("SELECT * FROM Test.Users t ORDER BY id LIMIT 2 OFFSET 2")
        assert [r["id"] for r in result.records] == [2, 3]

    def test_scalar_functions(self, db):
        result = db.execute("SELECT upper(t.name) AS u FROM Test.Users t LIMIT 1")
        assert result.records[0]["u"] == "USER0"

    def test_is_null(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM Test.Users t WHERE score IS NULL"
        )
        assert result.scalar() == 40

    def test_is_not_null(self, db):
        result = db.execute(
            "SELECT COUNT(*) FROM Test.Users t WHERE score IS NOT NULL"
        )
        assert result.scalar() == 360

    def test_distinct(self, db):
        result = db.execute('SELECT DISTINCT "lang" FROM Test.Users t')
        assert len(result) == 3

    def test_arithmetic_in_projection(self, db):
        result = db.execute("SELECT t.age + 1 AS next FROM Test.Users t WHERE t.id = 5")
        assert result.records[0]["next"] == 6

    def test_empty_aggregate_returns_row(self, db):
        result = db.execute("SELECT COUNT(*) FROM Test.Users t WHERE age = 999")
        assert result.scalar() == 0

    def test_join(self, db):
        db.create_table("Test.Extra", primary_key="id")
        db.insert("Test.Extra", [{"id": i, "tag": f"t{i}"} for i in range(50)])
        result = db.execute(
            "SELECT COUNT(*) FROM (SELECT l.*, r.* FROM (SELECT * FROM Test.Users) l "
            "INNER JOIN (SELECT * FROM Test.Extra) r ON l.id = r.id) t"
        )
        assert result.scalar() == 50


class TestNullSemantics:
    def test_comparison_with_null_filters_out(self, db):
        # score IS NULL rows must not appear in score = n for any n.
        total = db.execute(
            "SELECT COUNT(*) FROM Test.Users t WHERE score = 0 OR score != 0"
        ).scalar()
        assert total == 360

    def test_null_arithmetic_propagates(self, db):
        result = db.execute(
            "SELECT t.score + 1 AS s FROM Test.Users t WHERE t.id = 0"
        )
        # id=0 has score NULL; NULL + 1 is NULL, kept as an explicit column.
        assert result.records[0] == {"s": None}



class TestAggregateDistinct:
    """``agg(DISTINCT x)`` takes each value once, as SQLite does."""

    ROWS = [{"id": i, "a": [1, 2, 3, 0][i % 4], "g": i % 2} for i in range(20)]
    QUERIES = [
        "SELECT COUNT(DISTINCT a) AS c, SUM(DISTINCT a) AS s, AVG(DISTINCT a) AS v FROM t",
        "SELECT g, COUNT(DISTINCT a) AS c, SUM(DISTINCT a) AS s, AVG(DISTINCT a) AS v "
        "FROM t GROUP BY g ORDER BY g",
        "SELECT COUNT(DISTINCT a) AS c, COUNT(a) AS n, SUM(a) AS s FROM t",
        # Three groups overflow the 1k budget: distinct values merge across spill runs.
        "SELECT id % 3 AS k, COUNT(DISTINCT a) AS c FROM t GROUP BY id % 3 ORDER BY k",
    ]

    @pytest.fixture(scope="class")
    def sqlite(self):
        import sqlite3

        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE t (id, a, g)")
        connection.executemany("INSERT INTO t VALUES (:id, :a, :g)", self.ROWS)
        yield connection
        connection.close()

    @pytest.mark.parametrize("exec_engine", ["row", "vector"])
    @pytest.mark.parametrize("dialect", ["sql", "sqlpp"])
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_sqlite(self, sqlite, exec_engine, dialect, query):
        from repro.sqlpp import AsterixDB

        db = (SQLDatabase if dialect == "sql" else AsterixDB)(
            exec_engine=exec_engine, memory_budget="1k"
        )
        db.create_table("t", primary_key="id")
        db.insert("t", self.ROWS)
        cursor = sqlite.execute(query)
        names = [column[0] for column in cursor.description]
        expected = [dict(zip(names, row)) for row in cursor.fetchall()]
        assert db.execute(query.replace("FROM t", "FROM t t")).records == expected


class TestPlanSelection:
    def test_equality_uses_index(self, db):
        plan = db.explain("SELECT * FROM Test.Users t WHERE t.lang = 'en'")
        assert "IndexEqualityScan" in plan

    def test_range_uses_index(self, db):
        plan = db.explain(
            "SELECT * FROM Test.Users t WHERE t.age >= 10 AND t.age <= 20"
        )
        assert "IndexScan" in plan

    def test_min_max_index_only(self, db):
        result = db.execute("SELECT MAX(age) FROM Test.Users t")
        assert result.scalar() == 39
        assert result.stats.heap_fetches == 0

    def test_min_skips_absent_index_entries(self, db):
        result = db.execute("SELECT MIN(score) FROM Test.Users t")
        assert result.scalar() == 0  # not None, despite NULLs in the index
        assert result.stats.heap_fetches == 0

    def test_backward_index_scan_bounded(self, db):
        result = db.execute("SELECT * FROM Test.Users t ORDER BY age DESC LIMIT 5")
        assert result.stats.heap_fetches == 5
        assert result.stats.full_scans == 0

    def test_is_null_count_is_index_only(self, db):
        result = db.execute("SELECT COUNT(*) FROM Test.Users t WHERE score IS NULL")
        assert result.stats.heap_fetches == 0

    def test_subquery_flattening(self, db):
        nested = (
            "SELECT t.name FROM (SELECT * FROM (SELECT * FROM Test.Users t) t "
            "WHERE t.lang = 'en') t LIMIT 10"
        )
        plan = db.explain(nested)
        assert "DerivedBind" not in plan
        assert "IndexEqualityScan" in plan

    def test_greenplum_features_disable_optimizations(self, db):
        old = SQLDatabase(OptimizerFeatures.greenplum())
        old.create_table("Test.Users", primary_key="id")
        old.insert("Test.Users", [{"id": i, "age": i % 40} for i in range(100)])
        old.create_index("Test.Users", "age")
        max_result = old.execute("SELECT MAX(age) FROM Test.Users t")
        assert max_result.scalar() == 39
        assert max_result.stats.heap_fetches > 0  # no index-only plan
        sort_result = old.execute(
            "SELECT * FROM Test.Users t ORDER BY age DESC LIMIT 5"
        )
        assert sort_result.stats.full_scans == 1  # no backward index scan

    def test_unoptimized_features_scan_everything(self, db):
        raw = SQLDatabase(OptimizerFeatures.unoptimized())
        raw.create_table("t")
        raw.insert("t", [{"a": i} for i in range(10)])
        raw.create_index("t", "a")
        result = raw.execute("SELECT * FROM (SELECT * FROM t) x WHERE a = 3")
        assert result.stats.full_scans == 1
        assert len(result) == 1

    def test_explain_includes_both_phases(self, db):
        plan = db.explain("SELECT COUNT(*) FROM Test.Users t")
        assert "== logical ==" in plan and "== physical ==" in plan


class TestErrors:
    def test_unknown_table(self, db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM nope t")

    def test_unknown_function(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT frobnicate(age) FROM Test.Users t LIMIT 1")

    def test_group_by_without_aggregate_acts_as_distinct(self, db):
        result = db.execute("SELECT age FROM Test.Users t GROUP BY age")
        assert sorted(r["age"] for r in result.records) == list(range(40))

    def test_order_by_aggregate_output(self, db):
        result = db.execute(
            "SELECT lang, COUNT(lang) AS cnt FROM Test.Users t "
            "GROUP BY lang ORDER BY cnt DESC"
        )
        counts = [r["cnt"] for r in result.records]
        assert counts == sorted(counts, reverse=True)

    def test_incomparable_types(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT * FROM Test.Users t WHERE name > 5")


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=80),
    st.integers(0, 30),
)
def test_property_filter_count_matches_python(values, threshold):
    db = SQLDatabase()
    db.create_table("t")
    db.insert("t", [{"v": value} for value in values])
    db.create_index("t", "v")
    got = db.execute(f"SELECT COUNT(*) FROM t WHERE v >= {threshold}").scalar()
    assert got == sum(1 for value in values if value >= threshold)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=60))
def test_property_order_by_matches_sorted(values):
    db = SQLDatabase()
    db.create_table("t")
    db.insert("t", [{"v": value} for value in values])
    result = db.execute("SELECT * FROM t ORDER BY v")
    assert [r["v"] for r in result.records] == sorted(values)
