"""Cluster-layer streaming: k-way merge, backpressure, LIMIT pushdown.

Scatter-gather with ``stream=True`` must return the same records as the
materialized path on both dispatchers, ship at most LIMIT rows per shard
for un-aggregated record streams, and bound how far any shard's producer
can run ahead of the coordinator (per-shard queue backpressure).
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import GreenplumCluster, MongoDBCluster
from repro.cluster.dispatch import SerialDispatcher, ThreadPoolDispatcher
from repro.errors import ReproError
from repro.resilience import FaultInjector
from repro.wisconsin import wisconsin_records

RECORDS = 400
SHARDS = 3


def _greenplum(dispatch, budget=None, **knobs):
    gp = GreenplumCluster(
        SHARDS,
        query_prep_overhead=0.0,
        dispatch=dispatch,
        memory_budget=budget,
        **knobs,
    )
    gp.create_table("B.data", primary_key="unique2")
    gp.insert("B.data", wisconsin_records(RECORDS), shard_key="unique1")
    return gp


def _mongo(dispatch, budget=None):
    mg = MongoDBCluster(
        SHARDS, query_prep_overhead=0.0, dispatch=dispatch, memory_budget=budget
    )
    mg.create_collection("data")
    mg.insert_many("data", wisconsin_records(RECORDS), shard_key="unique1")
    return mg


@pytest.fixture(scope="module", params=["serial", "threads"])
def greenplum(request):
    return _greenplum(request.param)


SQL_QUERIES = [
    # ordered_limit: bounded k-way heap merge
    'SELECT * FROM B.data t ORDER BY t."ten", t."unique2" DESC LIMIT 25',
    # concat: plain chain of shard streams
    'SELECT t."unique2", t."two" FROM B.data t WHERE t."two" = 0',
    # blocking kinds: materialize fallback, still answer-identical
    'SELECT t."ten" AS k, COUNT(*) AS n FROM B.data t GROUP BY t."ten"',
    'SELECT COUNT(*) AS n FROM B.data t',
]


class TestStreamedScatterGatherParity:
    def test_sql_queries(self, greenplum):
        for query in SQL_QUERIES:
            expected = greenplum.execute(query).records
            streamed = list(greenplum.execute(query, stream=True).iter_records())
            assert streamed == expected, query

    def test_mongo_pipelines(self):
        for dispatch in ("serial", "threads"):
            mg = _mongo(dispatch)
            pipelines = [
                [{"$sort": {"ten": 1, "unique2": -1}}, {"$limit": 25}],
                [{"$match": {"two": 0}}],
                [{"$group": {"_id": {"ten": "$ten"}, "n": {"$sum": 1}}}],
            ]
            for pipeline in pipelines:
                expected = mg.aggregate("data", pipeline).records
                streamed = list(
                    mg.aggregate("data", pipeline, stream=True).iter_records()
                )
                assert streamed == expected, (dispatch, pipeline)

    def test_streamed_stats_fold_shard_memory(self):
        gp = _greenplum("threads", budget="4k")
        # A full sort (no LIMIT) so the shards' SortOps must spill; a
        # LIMIT would plan a bounded top-k that never exceeds the budget.
        query = 'SELECT * FROM B.data t ORDER BY t."ten", t."unique2" DESC'
        result = gp.execute(query, stream=True)
        records = list(result.iter_records())
        assert len(records) == RECORDS
        assert result.stats.peak_mem_bytes > 0
        assert result.stats.spill_bytes > 0


class TestLimitPushdown:
    """Un-aggregated streams ship at most LIMIT rows per shard."""

    K = 7

    def _shipped_per_shard(self, cluster, run_query):
        shipped: list[int] = []
        originals = [node.execute for node in cluster.nodes]
        for node in cluster.nodes:
            original = node.execute

            def counting(query_text, *, _original=original, **kwargs):
                result = _original(query_text)  # materialized: countable
                shipped.append(len(result.records))
                return result

            node.execute = counting
        try:
            records = run_query()
        finally:
            for node, original in zip(cluster.nodes, originals):
                node.execute = original
        return shipped, records

    @pytest.mark.parametrize("stream", [False, True])
    def test_ordered_limit_ships_k_rows_per_shard(self, stream):
        # Pinned to one copy per shard behind a private, empty injector:
        # the per-primary counts below assume every primary serves its
        # own shard, which the CI chaos matrix (REPRO_NODE_DOWN /
        # REPRO_REPLICATION) would otherwise change process-wide.
        gp = _greenplum(
            "serial", replication_factor=1, fault_injector=FaultInjector()
        )
        query = f'SELECT * FROM B.data t ORDER BY t."unique1" LIMIT {self.K}'

        def run():
            result = gp.execute(query, stream=stream)
            return list(result.iter_records())

        shipped, records = self._shipped_per_shard(gp, run)
        assert len(shipped) == SHARDS
        assert all(count <= self.K for count in shipped), shipped
        assert sum(shipped) <= self.K * SHARDS
        # and the merged answer is still the true global top-k
        assert [r["unique1"] for r in records] == list(range(self.K))

    def test_unordered_limit_ships_k_rows_per_shard(self):
        gp = _greenplum("serial")
        query = f"SELECT * FROM B.data t LIMIT {self.K}"

        def run():
            return list(gp.execute(query, stream=True).iter_records())

        shipped, records = self._shipped_per_shard(gp, run)
        assert all(count <= self.K for count in shipped), shipped
        assert len(records) == self.K


class TestStreamShards:
    class TrackedSource:
        """An iterable that counts records produced and close() calls."""

        def __init__(self, n: int):
            self.n = n
            self.produced = 0
            self.closed = False

        def __iter__(self):
            for i in range(self.n):
                self.produced += 1
                yield {"i": i}

        def close(self):
            self.closed = True

    def test_serial_dispatcher_is_passthrough(self):
        streams = SerialDispatcher().stream_shards([[1, 2], [3]])
        assert [list(s) for s in streams] == [[1, 2], [3]]

    def test_queue_size_validation(self):
        dispatcher = ThreadPoolDispatcher(max_workers=2)
        try:
            with pytest.raises(ReproError) as exc:
                dispatcher.stream_shards([[1], [2]], queue_size=0)
            assert "0" in str(exc.value)
        finally:
            dispatcher.close()

    def test_backpressure_bounds_producer_lead(self):
        dispatcher = ThreadPoolDispatcher(max_workers=4)
        queue_size = 4
        sources = [self.TrackedSource(200), self.TrackedSource(200)]
        try:
            streams = dispatcher.stream_shards(sources, queue_size=queue_size)
            # Consume nothing: producers must stall at the queue bound
            # (queue_size buffered + one record held by a blocked put).
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                counts = [source.produced for source in sources]
                time.sleep(0.02)
                if counts == [source.produced for source in sources] and all(
                    count > 0 for count in counts
                ):
                    break
            for source in sources:
                assert 0 < source.produced <= queue_size + 1
            # Draining everything releases the backpressure.
            for stream, source in zip(streams, sources):
                assert list(stream) == [{"i": i} for i in range(200)]
                assert source.produced == 200
        finally:
            dispatcher.close()

    def test_abandoned_consumer_closes_producer_source(self):
        dispatcher = ThreadPoolDispatcher(max_workers=4)
        sources = [self.TrackedSource(10_000), self.TrackedSource(10_000)]
        try:
            streams = dispatcher.stream_shards(sources, queue_size=8)
            first = streams[0]
            assert next(first) == {"i": 0}
            first.close()  # LIMIT satisfied: abandon the shard mid-stream
            assert sources[0].closed
            assert sources[0].produced < 10_000
            # the other shard is unaffected and drains fully
            assert sum(1 for _ in streams[1]) == 10_000
        finally:
            dispatcher.close()

    def test_producer_error_reaches_consumer(self):
        def broken():
            yield {"i": 0}
            raise ValueError("shard exploded")

        dispatcher = ThreadPoolDispatcher(max_workers=2)
        try:
            streams = dispatcher.stream_shards([broken(), iter([{"i": 1}])])
            assert next(streams[0]) == {"i": 0}
            with pytest.raises(ValueError, match="shard exploded"):
                next(streams[0])
        finally:
            dispatcher.close()
