"""PolyFrame core tests: incremental query formation, laziness, actions.

The incremental-query-formation tests assert the *query text* PolyFrame
builds for the paper's Table I operation chain, per language — the core
artifact of the paper.
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
from repro.core.series import PolySeries
from repro.errors import ConnectorError, RewriteError
from repro.graphdb import Neo4jDatabase
from repro.sqlengine import SQLDatabase
from repro.sqlpp import AsterixDB
from repro.docstore import MongoDatabase


@pytest.fixture()
def users_asterix():
    db = AsterixDB(query_prep_overhead=0.0)
    db.create_dataverse("Test")
    db.create_dataset("Test", "Users", primary_key="id")
    db.load(
        "Test.Users",
        [
            {"id": i, "lang": "en" if i % 3 == 0 else "fr",
             "name": f"u{i}", "address": f"{i} Main St", "age": i % 20}
            for i in range(120)
        ],
    )
    return PolyFrame("Test", "Users", AsterixDBConnector(db))


class TestTableIQueryFormation:
    """The exact rewrites of Table I, per language."""

    def test_sqlpp_anchor(self, users_asterix):
        assert users_asterix.query == "SELECT VALUE t FROM Test.Users t"

    def test_sqlpp_chain(self, users_asterix):
        af = users_asterix
        chained = af[af["lang"] == "en"][["name", "address"]]
        assert chained.query == (
            "SELECT t.name, t.address FROM "
            "(SELECT VALUE t FROM "
            "(SELECT VALUE t FROM Test.Users t) t "
            "WHERE t.lang = 'en') t"
        )

    def test_sqlpp_comparison_series(self, users_asterix):
        series = users_asterix["lang"] == "en"
        assert series.statement == "t.lang = 'en'"
        assert series.query == (
            "SELECT VALUE t.lang = 'en' FROM (SELECT VALUE t FROM Test.Users t) t"
        )

    def test_sql_chain(self):
        db = SQLDatabase()
        db.create_table("Test.Users", primary_key="id")
        db.insert("Test.Users", [{"id": 1, "lang": "en", "name": "a", "address": "x"}])
        af = PolyFrame("Test", "Users", PostgresConnector(db))
        assert af.query == "SELECT * FROM Test.Users t"
        chained = af[af["lang"] == "en"][["name", "address"]]
        assert chained.query == (
            'SELECT t."name", t."address" FROM '
            "(SELECT * FROM "
            "(SELECT * FROM Test.Users t) t "
            "WHERE t.\"lang\" = 'en') t"
        )

    def test_mongo_chain_matches_fig4(self):
        db = MongoDatabase(query_prep_overhead=0.0)
        db.create_collection("Users")
        db.collection("Users").insert_many(
            [{"lang": "en", "name": "a", "address": "x"}]
        )
        af = PolyFrame("Test", "Users", MongoDBConnector(db))
        assert af.query == '{ "$match": {} }'
        chained = af[af["lang"] == "en"][["name", "address"]]
        pipeline = af.connector.preprocess(
            af.connector.rewriter.apply("limit", subquery=chained.query, num=10),
            "Users",
        )
        # Figure 4's pipeline: match {}, expr match, projections, limit.
        assert pipeline[0] == {"$match": {}}
        assert pipeline[1] == {"$match": {"$expr": {"$eq": ["$lang", "en"]}}}
        assert pipeline[2] == {"$project": {"name": 1, "address": 1}}
        assert pipeline[3] == {"$project": {"_id": 0}}
        assert pipeline[4] == {"$limit": 10}

    def test_cypher_chain(self):
        db = Neo4jDatabase(query_prep_overhead=0.0)
        db.load("Users", [{"lang": "en", "name": "a", "address": "x"}])
        af = PolyFrame("Test", "Users", Neo4jConnector(db))
        assert af.query == "MATCH(t: Users)"
        chained = af[af["lang"] == "en"][["name", "address"]]
        assert chained.query == (
            "MATCH(t: Users)\n"
            'WITH t WHERE t.lang = "en"\n'
            "WITH t{'name': t.name, 'address': t.address}"
        )


class TestLaziness:
    def test_transformations_send_nothing(self, users_asterix):
        connector = users_asterix.connector
        calls = []
        original_send = connector.send

        def counting_send(query, collection, **kwargs):
            calls.append(query)
            return original_send(query, collection, **kwargs)

        connector.send = counting_send
        try:
            af = users_asterix
            chained = af[af["lang"] == "en"][["name", "address"]]
            grouped = af.groupby("age").agg("count")
            ordered = af.sort_values("age", ascending=False)
            joined = af.merge(af, left_on="id", right_on="id")
            assert calls == []  # pure transformations: zero queries sent
            chained.head(3)
            assert len(calls) == 1
        finally:
            connector.send = original_send

    def test_filter_uses_condition_not_subquery(self, users_asterix):
        """The paper's footnote: df4 derives from df1 with df3's condition."""
        af = users_asterix
        mask = af["lang"] == "en"
        filtered = af[mask]
        assert mask.query not in filtered.query
        assert mask.statement in filtered.query


class TestActions:
    def test_head_returns_eager_frame(self, users_asterix):
        result = users_asterix.head(7)
        assert len(result) == 7
        assert "name" in result.columns

    def test_len_counts(self, users_asterix):
        assert len(users_asterix) == 120
        assert len(users_asterix[users_asterix["lang"] == "en"]) == 40

    def test_collect_everything(self, users_asterix):
        assert len(users_asterix.collect()) == 120

    def test_topandas_alias(self, users_asterix):
        assert len(users_asterix.toPandas()) == 120

    def test_series_aggregates(self, users_asterix):
        ages = users_asterix["age"]
        assert ages.max() == 19
        assert ages.min() == 0
        assert ages.count() == 120
        assert ages.sum() == sum(i % 20 for i in range(120))
        assert ages.mean() == pytest.approx(9.5)
        assert ages.std() == pytest.approx(5.766, abs=0.01)

    def test_series_head(self, users_asterix):
        result = users_asterix["name"].head(3)
        assert len(result) == 3

    def test_series_map_head(self, users_asterix):
        result = users_asterix["name"].map(str.upper).head(2)
        values = result.column_values(result.columns[0])
        assert values == ["U0", "U1"]

    def test_groupby_then_len(self, users_asterix):
        grouped = users_asterix.groupby("age").agg("count")
        assert len(grouped) == 20

    def test_groupby_value_column(self, users_asterix):
        result = users_asterix.groupby("lang")["age"].agg("max").collect()
        values = {r["lang"]: r["max_age"] for r in result.to_records()}
        assert values["en"] == 19

    def test_sort_head(self, users_asterix):
        result = users_asterix.sort_values("age", ascending=False).head(2)
        assert all(r["age"] == 19 for r in result.to_records())

    def test_describe(self, users_asterix):
        stats = users_asterix.describe()
        assert "age" in stats.columns
        assert stats.column_values("statistic") == ["count", "min", "max", "avg", "std"]

    def test_columns_via_sampling(self, users_asterix):
        assert set(users_asterix.columns) >= {"id", "lang", "name", "age"}

    def test_isna_count(self, users_asterix):
        assert len(users_asterix[users_asterix["age"].isna()]) == 0

    def test_explain_returns_query(self, users_asterix):
        assert users_asterix.explain() == users_asterix.query
        assert "PolyFrame" in repr(users_asterix)


class TestSeriesComposition:
    def test_arithmetic_statements(self, users_asterix):
        series = users_asterix["age"] + 1
        assert series.statement == "t.age + 1"
        assert (users_asterix["age"] * 2).statement == "t.age * 2"
        assert (users_asterix["age"] % 2).statement == "t.age % 2"
        assert (users_asterix["age"] - 1).statement == "t.age - 1"
        assert (users_asterix["age"] / 2).statement == "t.age / 2"

    def test_comparison_variants(self, users_asterix):
        age = users_asterix["age"]
        assert (age != 3).statement == "t.age != 3"
        assert (age > 3).statement == "t.age > 3"
        assert (age <= 3).statement == "t.age <= 3"
        assert (age >= 3).statement == "t.age >= 3"
        assert (age < 3).statement == "t.age < 3"

    def test_logical_composition(self, users_asterix):
        masked = (users_asterix["age"] == 1) & (users_asterix["lang"] == "en")
        assert masked.statement == "t.age = 1 AND t.lang = 'en'"
        inverted = ~(users_asterix["age"] == 1)
        assert inverted.statement == "NOT (t.age = 1)"

    def test_series_vs_series_comparison(self, users_asterix):
        mask = users_asterix["age"] == users_asterix["id"]
        assert mask.statement == "t.age = t.id"

    def test_logical_requires_series(self, users_asterix):
        with pytest.raises(TypeError):
            (users_asterix["age"] == 1) & 5

    def test_mongo_requires_plain_columns(self):
        db = MongoDatabase(query_prep_overhead=0.0)
        db.create_collection("Users")
        db.collection("Users").insert_many([{"a": 1}])
        af = PolyFrame("", "Users", MongoDBConnector(db))
        derived = af["a"] + 1
        with pytest.raises(RewriteError):
            derived == 5  # noqa: B015 — composing on a computed column

    def test_unknown_map_function(self, users_asterix):
        with pytest.raises(RewriteError):
            users_asterix["name"].map(reversed)


class TestValidation:
    def test_missing_dataset_rejected(self):
        db = AsterixDB(query_prep_overhead=0.0)
        db.create_dataverse("Test")
        with pytest.raises(ConnectorError):
            PolyFrame("Test", "Nope", AsterixDBConnector(db))

    def test_cross_connector_join_rejected(self, users_asterix):
        other_db = SQLDatabase()
        other_db.create_table("Test.Users", primary_key="id")
        other_db.insert("Test.Users", [{"id": 1}])
        other = PolyFrame("Test", "Users", PostgresConnector(other_db))
        with pytest.raises(ConnectorError):
            users_asterix.merge(other, left_on="id", right_on="id")

    def test_only_inner_joins(self, users_asterix):
        with pytest.raises(RewriteError):
            users_asterix.merge(users_asterix, left_on="id", right_on="id", how="left")

    def test_bad_index_type(self, users_asterix):
        with pytest.raises(TypeError):
            users_asterix[42]

    def test_series_without_query(self):
        series = PolySeries(None, "c", "stmt")
        with pytest.raises(RewriteError):
            series.query


class TestBackendPlan:
    def test_sql_family_exposes_plans(self, users_asterix):
        plan = users_asterix[users_asterix["lang"] == "en"].backend_plan()
        assert "== physical ==" in plan
        assert "IndexEqualityScan" in plan or "Filter" in plan

    def test_other_backends_raise(self):
        from repro.docstore import MongoDatabase

        db = MongoDatabase(query_prep_overhead=0.0)
        db.create_collection("c")
        db.collection("c").insert_many([{"a": 1}])
        frame = PolyFrame("", "c", MongoDBConnector(db))
        with pytest.raises(ConnectorError):
            frame.backend_plan()
