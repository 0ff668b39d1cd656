"""Cluster simulation tests: sharding, merging, and engine parity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AsterixDBConnector, MongoDBConnector, PolyFrame, PostgresConnector
from repro.cluster import AsterixDBCluster, GreenplumCluster, MongoDBCluster
from repro.cluster.base import round_robin_shards, shard_records
from repro.cluster.merge import merge_records, spec_for_pipeline, spec_for_select
from repro.errors import UnsupportedOperationError
from repro.sqlengine.parser import parse
from repro.wisconsin import wisconsin_records


class TestSharding:
    def test_round_robin_is_uniform(self):
        shards = round_robin_shards([{"n": i} for i in range(10)], 3)
        assert [len(s) for s in shards] == [4, 3, 3]

    def test_hash_sharding_colocates_keys(self):
        records = [{"k": i % 4, "n": i} for i in range(40)]
        shards = shard_records(records, 3, shard_key="k")
        for shard in shards:
            keys = {record["k"] for record in shard}
            for other in shards:
                if other is shard:
                    continue
                assert keys.isdisjoint({record["k"] for record in other})

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            AsterixDBCluster(0)
        with pytest.raises(ValueError):
            GreenplumCluster(0)
        with pytest.raises(ValueError):
            MongoDBCluster(0)


class TestMergeSpecs:
    def test_scalar_count_spec(self):
        spec = spec_for_select(parse("SELECT COUNT(*) FROM (SELECT * FROM t) x", "sql"))
        assert spec.kind == "scalar_agg"
        merged = merge_records(spec, [[{"count": 3}], [{"count": 4}]])
        assert merged == [{"count": 7}]

    def test_select_value_count(self):
        spec = spec_for_select(parse("SELECT VALUE COUNT(*) FROM t x", "sqlpp"))
        assert spec.select_value
        assert merge_records(spec, [[5], [7], [0]]) == [12]

    def test_min_max_specs(self):
        spec = spec_for_select(parse("SELECT MAX(a), MIN(a) FROM t x", "sql"))
        merged = merge_records(spec, [[{"max": 9, "min": 2}], [{"max": 4, "min": 0}]])
        assert merged == [{"max": 9, "min": 0}]

    def test_avg_decomposes_into_partials(self):
        spec = spec_for_select(parse("SELECT AVG(a) FROM t x", "sql"))
        assert spec.needs_rewrite
        partial = spec.partial_outputs[0]
        merged = merge_records(
            spec,
            [
                [{partial.sum_col: 6, partial.count_col: 2}],
                [{partial.sum_col: 3, partial.count_col: 1}],
            ],
        )
        assert merged == [{"avg": 3.0}]

    def test_avg_merge_ignores_empty_shards(self):
        spec = spec_for_select(parse("SELECT AVG(a) FROM t x", "sql"))
        partial = spec.partial_outputs[0]
        merged = merge_records(
            spec,
            [
                [{partial.sum_col: 10, partial.count_col: 4}],
                [{partial.sum_col: None, partial.count_col: 0}],
            ],
        )
        assert merged == [{"avg": 2.5}]

    def test_sum_merge_all_null_is_null(self):
        # SQL semantics: SUM over zero qualifying rows is NULL, not 0 —
        # a cluster where every shard reports NULL must not invent a 0.
        spec = spec_for_select(parse("SELECT SUM(a) FROM t x", "sql"))
        merged = merge_records(spec, [[{"sum": None}], [{"sum": None}]])
        assert merged == [{"sum": None}]
        merged = merge_records(spec, [[{"sum": None}], [{"sum": 7}]])
        assert merged == [{"sum": 7}]

    def test_group_merge(self):
        spec = spec_for_select(
            parse("SELECT k, COUNT(k) AS c FROM t x GROUP BY k", "sql")
        )
        assert spec.kind == "group_agg"
        merged = merge_records(
            spec,
            [[{"k": 1, "c": 2}, {"k": 2, "c": 1}], [{"k": 1, "c": 3}]],
        )
        by_key = {record["k"]: record["c"] for record in merged}
        assert by_key == {1: 5, 2: 1}

    def test_ordered_limit_merge(self):
        spec = spec_for_select(
            parse("SELECT * FROM t x ORDER BY v DESC LIMIT 3", "sql")
        )
        merged = merge_records(
            spec,
            [[{"v": 9}, {"v": 5}], [{"v": 8}, {"v": 7}]],
        )
        assert [record["v"] for record in merged] == [9, 8, 7]

    def test_concat_with_limit(self):
        spec = spec_for_select(parse("SELECT * FROM t x LIMIT 2", "sql"))
        merged = merge_records(spec, [[{"v": 1}], [{"v": 2}], [{"v": 3}]])
        assert len(merged) == 2

    def test_pipeline_count_spec(self):
        spec = spec_for_pipeline([{"$match": {}}, {"$count": "count"}])
        assert merge_records(spec, [[{"count": 2}], []]) == [{"count": 2}]

    def test_pipeline_group_spec(self):
        spec = spec_for_pipeline([
            {"$group": {"_id": {"k": "$k"}, "max": {"$max": "$v"}}},
        ])
        merged = merge_records(
            spec, [[{"k": 1, "max": 5}], [{"k": 1, "max": 9}, {"k": 2, "max": 1}]]
        )
        by_key = {record["k"]: record["max"] for record in merged}
        assert by_key == {1: 9, 2: 1}

    def test_pipeline_sort_limit(self):
        spec = spec_for_pipeline([
            {"$match": {}}, {"$sort": {"v": -1}}, {"$limit": 2},
        ])
        merged = merge_records(spec, [[{"v": 3}, {"v": 1}], [{"v": 5}]])
        assert [record["v"] for record in merged] == [5, 3]

    def test_pipeline_lookup_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            spec_for_pipeline([{"$lookup": {"from": "x", "as": "y"}}])

    def test_pipeline_avg_decomposes_into_partials(self):
        spec = spec_for_pipeline([{"$group": {"_id": {}, "a": {"$avg": "$v"}}}])
        assert spec.needs_rewrite
        partial = spec.partial_outputs[0]
        merged = merge_records(
            spec,
            [
                [{partial.sum_col: 8, partial.count_col: 2}],
                [{partial.sum_col: 1, partial.count_col: 1}],
            ],
        )
        assert merged == [{"a": 3.0}]


    @pytest.mark.parametrize("aggregate", ["COUNT", "SUM", "AVG", "MIN"])
    def test_aggregate_distinct_is_refused(self, aggregate):
        # Per-shard distinct values overlap, so per-shard answers do not combine.
        query = f"SELECT {aggregate}(DISTINCT a) AS x FROM t x"
        with pytest.raises(UnsupportedOperationError, match="DISTINCT"):
            spec_for_select(parse(query, "sql"))
        cluster = GreenplumCluster(4, query_prep_overhead=0.0)
        cluster.create_table("t")
        cluster.insert("t", [{"a": n % 3} for n in range(12)], shard_key="a")
        with pytest.raises(UnsupportedOperationError, match="DISTINCT"):
            cluster.execute(query)


@pytest.fixture(scope="module")
def loaded_clusters():
    records = wisconsin_records(400)
    adb = AsterixDBCluster(3, query_prep_overhead=0.0)
    adb.create_dataverse("B")
    adb.create_dataset("B", "data", primary_key="unique2")
    adb.load("B.data", records, shard_key="unique1")
    adb.create_index("B.data", "unique1")
    adb.create_index("B.data", "ten")

    gp = GreenplumCluster(3, query_prep_overhead=0.0)
    gp.create_table("B.data", primary_key="unique2")
    gp.insert("B.data", records, shard_key="unique1")
    gp.create_index("B.data", "unique1")

    mg = MongoDBCluster(3, query_prep_overhead=0.0)
    mg.create_collection("data")
    mg.insert_many("data", records, shard_key="unique1")
    mg.create_index("data", "unique1")
    return records, adb, gp, mg


class TestClusterParity:
    """Sharded answers must equal single-node answers."""

    def test_counts(self, loaded_clusters):
        records, adb, gp, mg = loaded_clusters
        for connector in (
            AsterixDBConnector(adb),
            PostgresConnector(gp),
            MongoDBConnector(mg),
        ):
            af = PolyFrame("B", "data", connector)
            assert len(af) == 400

    def test_filtered_count(self, loaded_clusters):
        records, adb, gp, mg = loaded_clusters
        expected = sum(1 for r in records if r["ten"] == 3)
        for connector in (
            AsterixDBConnector(adb),
            PostgresConnector(gp),
            MongoDBConnector(mg),
        ):
            af = PolyFrame("B", "data", connector)
            assert len(af[af["ten"] == 3]) == expected

    def test_max_min(self, loaded_clusters):
        records, adb, gp, mg = loaded_clusters
        for connector in (
            AsterixDBConnector(adb),
            PostgresConnector(gp),
            MongoDBConnector(mg),
        ):
            af = PolyFrame("B", "data", connector)
            assert af["unique1"].max() == 399
            assert af["unique1"].min() == 0

    def test_grouped_counts(self, loaded_clusters):
        records, adb, gp, mg = loaded_clusters
        for connector in (
            AsterixDBConnector(adb),
            PostgresConnector(gp),
            MongoDBConnector(mg),
        ):
            af = PolyFrame("B", "data", connector)
            result = af.groupby("ten")["four"].agg("max").collect()
            assert len(result) == 10

    def test_global_topk(self, loaded_clusters):
        records, adb, gp, mg = loaded_clusters
        for connector in (
            AsterixDBConnector(adb),
            PostgresConnector(gp),
            MongoDBConnector(mg),
        ):
            af = PolyFrame("B", "data", connector)
            top = af.sort_values("unique1", ascending=False).head(5)
            assert [r["unique1"] for r in top.to_records()] == [399, 398, 397, 396, 395]

    def test_colocated_join(self, loaded_clusters):
        records, adb, gp, mg = loaded_clusters
        af = PolyFrame("B", "data", AsterixDBConnector(adb))
        assert len(af.merge(af, left_on="unique1", right_on="unique1")) == 400
        af = PolyFrame("B", "data", PostgresConnector(gp))
        assert len(af.merge(af, left_on="unique1", right_on="unique1")) == 400

    def test_mongo_sharded_join_unsupported(self, loaded_clusters):
        records, adb, gp, mg = loaded_clusters
        af = PolyFrame("B", "data", MongoDBConnector(mg))
        with pytest.raises(UnsupportedOperationError):
            len(af.merge(af, left_on="unique1", right_on="unique1"))

    def test_distributed_avg_and_std_match_single_node(self, loaded_clusters):
        # AVG/STDDEV now ship partial states (sum, count, sum of squares)
        # from the shards; the finalized answers must equal a single
        # node's bit-for-bit on integer columns (exact integer partials).
        records, adb, gp, mg = loaded_clusters
        from repro.exec.scalar import finalize_avg, finalize_std

        values = [r["four"] for r in records]
        expected_avg = finalize_avg(len(values), sum(values))
        expected_std = finalize_std(
            len(values), sum(values), sum(v * v for v in values)
        )
        for connector in (
            AsterixDBConnector(adb),
            PostgresConnector(gp),
            MongoDBConnector(mg),
        ):
            af = PolyFrame("B", "data", connector)
            assert af["four"].mean() == expected_avg
            assert af["four"].std() == expected_std

    def test_simulated_elapsed_is_max_plus_merge(self, loaded_clusters):
        records, adb, gp, mg = loaded_clusters
        result = adb.execute("SELECT VALUE COUNT(*) FROM B.data t")
        per_node = [node.execute("SELECT VALUE COUNT(*) FROM B.data t") for node in adb.nodes]
        assert result.elapsed_seconds < sum(r.elapsed_seconds for r in per_node) + 1.0
        assert result.records == [400]

    def test_greenplum_lacks_modern_plans(self, loaded_clusters):
        records, adb, gp, mg = loaded_clusters
        result = gp.execute('SELECT MAX("unique1") FROM (SELECT * FROM B.data) t')
        assert result.records[0]["max"] == 399
        assert result.stats.heap_fetches > 0  # no index-only scan (PG 9.5)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(0, 99), min_size=1, max_size=60),
    st.integers(1, 4),
)
def test_property_sharded_count_equals_local(values, nodes):
    cluster = GreenplumCluster(nodes, query_prep_overhead=0.0)
    cluster.create_table("t")
    cluster.insert("t", [{"v": value} for value in values])
    got = cluster.execute("SELECT COUNT(*) FROM (SELECT * FROM t) x").scalar()
    assert got == len(values)
