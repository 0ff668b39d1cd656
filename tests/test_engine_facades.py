"""Facade-level API tests across the engines and clusters."""

from __future__ import annotations

import pytest

from repro.cluster import AsterixDBCluster, GreenplumCluster, MongoDBCluster
from repro.docstore import MongoDatabase
from repro.errors import CatalogError, ShardFailureError
from repro.graphdb import Neo4jDatabase
from repro.resilience import FaultInjector
from repro.sqlengine import SQLDatabase
from repro.sqlpp import AsterixDB


class TestSQLFacade:
    def test_row_count_and_drop(self):
        db = SQLDatabase()
        db.create_table("t")
        db.insert("t", [{"a": 1}, {"a": 2}])
        assert db.row_count("t") == 2
        db.drop_table("t")
        with pytest.raises(CatalogError):
            db.row_count("t")

    def test_named_index_creation(self):
        db = SQLDatabase()
        db.create_table("t")
        db.create_index("t", "a", index_name="custom_name")
        assert db.catalog.table("t").indexes["custom_name"].column == "a"

    def test_analyze_populates_stats(self):
        db = SQLDatabase()
        db.create_table("t")
        db.insert("t", [{"a": n} for n in range(10)])
        db.analyze("t")
        stats = db.catalog.table("t").stats
        assert stats.row_count == 10
        assert stats.columns["a"].max_value == 9


class TestMongoFacade:
    def test_collection_lifecycle(self):
        db = MongoDatabase()
        db.create_collection("c")
        assert db.has_collection("c")
        assert db.list_collection_names() == ["c"]
        with pytest.raises(CatalogError):
            db.create_collection("c")
        db.drop_collection("c")
        assert not db.has_collection("c")
        with pytest.raises(CatalogError):
            db.drop_collection("c")

    def test_replace_collection(self):
        db = MongoDatabase()
        db.create_collection("c")
        db.collection("c").insert_many([{"a": 1}])
        db.replace_collection("c", [{"b": 2}, {"b": 3}])
        assert db.estimated_document_count("c") == 2


class TestNeo4jFacade:
    def test_node_count_and_index_lifecycle(self):
        db = Neo4jDatabase()
        db.load("L", [{"a": n} for n in range(5)])
        assert db.node_count("L") == 5
        assert db.node_count("M") == 0
        db.create_index("L", "a")
        db.drop_index("L", "a")
        with pytest.raises(CatalogError):
            db.drop_index("L", "a")


class TestClusterFacades:
    def test_asterix_cluster_metadata(self):
        cluster = AsterixDBCluster(2, query_prep_overhead=0.0)
        cluster.create_dataverse("D")
        assert cluster.has_dataverse("D")
        cluster.create_dataset("D", "s", primary_key="id")
        cluster.load("D.s", [{"id": n} for n in range(10)])
        assert cluster.row_count("D.s") == 10
        assert cluster.catalog.has_table("D.s")
        cluster.analyze("D.s")

    def test_greenplum_explain(self):
        cluster = GreenplumCluster(2, query_prep_overhead=0.0)
        cluster.create_table("t")
        cluster.insert("t", [{"a": 1}])
        assert "physical" in cluster.explain("SELECT COUNT(*) FROM t x")

    def test_mongo_cluster_metadata_count(self):
        cluster = MongoDBCluster(3, query_prep_overhead=0.0)
        cluster.create_collection("c")
        cluster.insert_many("c", [{"n": n} for n in range(9)])
        assert cluster.estimated_document_count("c") == 9

    def test_single_node_mongo_cluster_allows_lookup(self):
        cluster = MongoDBCluster(1, query_prep_overhead=0.0)
        cluster.create_collection("c")
        cluster.insert_many("c", [{"n": n} for n in range(4)])
        result = cluster.aggregate("c", [
            {"$lookup": {"from": "c", "localField": "n", "foreignField": "n", "as": "m"}},
            {"$unwind": {"path": "$m"}},
            {"$count": "k"},
        ])
        assert result.records == [{"k": 4}]

    def test_single_node_mongo_cluster_is_a_cluster(self):
        """One shard goes through the same gather as many: an injected
        outage fails it, the result cache serves it, stats are stamped —
        and its answer is the engine's, verbatim.  (The shard-merge layer
        only understands PolyFrame-shaped pipelines; one shard needs none.)"""
        documents = [{"g": n % 2, "n": n} for n in range(6)]
        engine = MongoDatabase()
        injector = FaultInjector()
        cluster = MongoDBCluster(
            1, query_prep_overhead=0.0, fault_injector=injector, cache=True
        )
        for db in (engine, cluster):
            db.create_collection("c")
        engine.collection("c").insert_many(documents)
        cluster.insert_many("c", documents)
        pipeline = [{"$match": {}}, {"$count": "k"}]
        first = cluster.aggregate("c", pipeline)
        assert first.records == [{"k": 6}]
        assert first.stats.dispatch_mode and first.stats.parallelism == 1
        assert cluster.result_cache.misses == 1
        again = cluster.aggregate("c", pipeline)
        assert again.records == first.records
        assert cluster.result_cache.hits == 1
        group_by_dict = {"$group": {"_id": {"g": "$g"}, "x": {"$sum": "$n"}}}
        for pipeline in (
            [{"$group": {"_id": "$g", "x": {"$sum": "$n"}}}],
            [{"$match": {}}, {"$count": "k"}, {"$project": {"k2": "$k"}}],
            [{"$group": {"_id": None, "x": {"$avg": "$n"}}}],
            [group_by_dict, {"$match": {"x": 9}}],
            [group_by_dict, {"$sort": {"x": -1}}],
        ):
            expected = engine.aggregate("c", pipeline).records
            assert expected, pipeline
            assert cluster.aggregate("c", pipeline).records == expected, pipeline
        cluster.insert_many("c", [{"n": 6}])  # a write invalidates
        injector.down("mongodb-cluster")
        with pytest.raises(ShardFailureError):
            cluster.aggregate("c", pipeline)
