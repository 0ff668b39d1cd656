"""Unit battery for the result cache, singleflight, and cache plumbing.

Pins the behaviors ``docs/caching.md`` documents: version-vector
invalidation, cost-aware admission, LRU eviction order and byte
accounting (on both caches, which share one ``stats()`` shape),
TTL expiry, streaming admission, the ``cache``/``REPRO_CACHE``
resolution matrix, and the observability surface of a served hit.
The singleflight stress test drives one shared connector from N client
threads over a thread-dispatched cluster: exactly one backend
execution, identical answers, isolated per-client spans.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import PolyFrame, PostgresConnector
from repro.cache import (
    DatasetVersions,
    ResultCache,
    Singleflight,
)
from repro.cluster import GreenplumCluster
from repro.cluster.dispatch import ThreadPoolDispatcher
from repro.cache.compiled import CompiledQueryCache
from repro.errors import ReproError
from repro.obs import Tracer
from repro.obs.trace import get_tracer
from repro.resilience.faults import FaultInjector
from repro.sqlengine import SQLDatabase
from repro.wisconsin import loaders, wisconsin_records

STATS_SHAPE = {"hits", "misses", "entries", "evictions", "bytes"}


def _record(i: int, pad: str = "") -> dict:
    return {"id": i, "pad": pad}


# ----------------------------------------------------------------------
# Version vectors
# ----------------------------------------------------------------------
class TestDatasetVersions:
    def test_unwritten_datasets_stay_unregistered(self):
        versions = DatasetVersions()
        assert versions.version("data") == 0
        assert versions.vector("SELECT * FROM Bench.data", "data") == ()

    def test_bump_is_monotonic_and_vector_is_sorted(self):
        versions = DatasetVersions()
        versions.bump("b", "a")
        versions.bump("a")
        assert versions.version("a") == 2
        vector = versions.vector("join of a and b", "")
        assert vector == (("a", 2), ("b", 1))

    def test_vector_matches_collection_or_query_text(self):
        versions = DatasetVersions()
        versions.bump("Bench.data", "data", "other")
        by_collection = versions.vector("SELECT 1", "data")
        assert ("data", 1) in by_collection
        assert ("other", 1) not in by_collection
        by_text = versions.vector("SELECT * FROM Bench.data t", "")
        assert ("Bench.data", 1) in by_text

    def test_empty_names_ignored(self):
        versions = DatasetVersions()
        versions.bump("", "x")
        assert versions.vector("x", "x") == (("x", 1),)


# ----------------------------------------------------------------------
# Admission policy
# ----------------------------------------------------------------------
class TestAdmission:
    def test_fast_queries_not_admitted(self):
        cache = ResultCache(min_seconds=0.5)
        assert not cache.store("k", [_record(1)], elapsed_seconds=0.4)
        assert cache.store("k", [_record(1)], elapsed_seconds=0.6)

    def test_oversized_entries_refused(self):
        cache = ResultCache(max_bytes=100_000, max_entry_bytes=2_000)
        big = [_record(i, pad="x" * 100) for i in range(50)]
        assert not cache.store("big", big, elapsed_seconds=1.0)
        assert cache.stats()["entries"] == 0
        assert cache.store("small", [_record(1)], elapsed_seconds=1.0)

    def test_partial_results_never_admitted(self):
        cache = ResultCache()
        assert not cache.store(
            "k", [_record(1)], elapsed_seconds=9.9, partial=True
        )
        assert cache.lookup("k") is None

    def test_records_are_snapshotted(self):
        cache = ResultCache()
        records = [_record(1)]
        cache.store("k", records, elapsed_seconds=1.0)
        records.append(_record(2))
        assert len(cache.lookup("k").records) == 1

    def test_max_entry_bytes_defaults_to_an_eighth(self):
        cache = ResultCache(max_bytes=8_000)
        assert cache.max_entry_bytes == 1_000
        assert ResultCache(max_bytes=4, max_entry_bytes=100).max_entry_bytes == 4


# ----------------------------------------------------------------------
# TTL expiry
# ----------------------------------------------------------------------
class TestTTL:
    def test_expired_entries_evict_and_miss(self):
        now = [100.0]
        cache = ResultCache(ttl_seconds=10.0, clock=lambda: now[0])
        cache.store("k", [_record(1)], elapsed_seconds=1.0)
        now[0] = 109.0
        assert cache.lookup("k") is not None
        now[0] = 111.0
        assert cache.lookup("k") is None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 0
        assert stats["bytes"] == 0

    def test_no_ttl_means_no_expiry(self):
        now = [0.0]
        cache = ResultCache(clock=lambda: now[0])
        cache.store("k", [_record(1)], elapsed_seconds=1.0)
        now[0] = 1e9
        assert cache.lookup("k") is not None


# ----------------------------------------------------------------------
# LRU order and byte accounting — the shared contract of both caches
# ----------------------------------------------------------------------
class TestResultCacheLRU:
    def _sized_cache_and_entry_bytes(self):
        probe = ResultCache()
        probe.store("probe", [_record(0)], elapsed_seconds=1.0)
        nbytes = probe.stats()["bytes"]
        # Budget for exactly three single-record entries.
        return ResultCache(max_bytes=3 * nbytes, max_entry_bytes=nbytes), nbytes

    def test_evicts_least_recently_used_first(self):
        cache, _ = self._sized_cache_and_entry_bytes()
        for key in ("a", "b", "c"):
            cache.store(key, [_record(0)], elapsed_seconds=1.0)
        assert cache.lookup("a") is not None  # refresh: b is now LRU
        cache.store("d", [_record(0)], elapsed_seconds=1.0)
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None
        assert cache.lookup("c") is not None
        assert cache.lookup("d") is not None
        assert cache.stats()["evictions"] == 1

    def test_bytes_track_stores_evictions_and_replacement(self):
        cache, nbytes = self._sized_cache_and_entry_bytes()
        for key in ("a", "b", "c"):
            cache.store(key, [_record(0)], elapsed_seconds=1.0)
        assert cache.stats()["bytes"] == 3 * nbytes
        cache.store("d", [_record(0)], elapsed_seconds=1.0)  # evicts a
        assert cache.stats() | {"invalidations": 0} == {
            "hits": 0,
            "misses": 0,
            "entries": 3,
            "evictions": 1,
            "bytes": 3 * nbytes,
            "invalidations": 0,
        }
        cache.store("d", [], elapsed_seconds=1.0)  # replace in place
        assert cache.stats()["entries"] == 3
        assert cache.stats()["bytes"] < 3 * nbytes
        cache.clear()
        assert cache.stats()["bytes"] == 0

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ReproError):
            ResultCache(max_bytes=0)


class TestCompiledQueryCacheLRU:
    def test_evicts_least_recently_used_first(self):
        cache = CompiledQueryCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.store(key, f"SELECT {key}", 1)
        assert cache.lookup("a") is not None  # refresh: b is now LRU
        cache.store("d", "SELECT d", 1)
        assert cache.lookup("b") is None
        assert cache.lookup("a") == ("SELECT a", 1)
        assert cache.stats()["evictions"] == 1

    def test_bytes_are_total_text_length(self):
        cache = CompiledQueryCache(max_entries=2)
        cache.store("a", "xxxx", 1)
        cache.store("b", "yy", 2)
        assert cache.stats()["bytes"] == 6
        cache.store("a", "z", 1)  # replacement re-accounts
        assert cache.stats()["bytes"] == 3
        cache.store("c", "www", 1)  # evicts b
        assert cache.stats()["bytes"] == 4
        cache.clear()
        assert cache.stats()["bytes"] == 0

    def test_stats_shape_is_shared(self):
        compiled = CompiledQueryCache().stats()
        results = ResultCache().stats()
        assert set(compiled.keys()) == STATS_SHAPE
        assert set(results.keys()) == STATS_SHAPE | {"invalidations"}
        assert all(isinstance(v, int) for v in {**compiled, **results}.values())


# ----------------------------------------------------------------------
# Singleflight
# ----------------------------------------------------------------------
class TestSingleflight:
    def test_sequential_calls_all_execute(self):
        flight = Singleflight()
        calls = []
        for i in range(3):
            waited, value = flight.run("k", lambda i=i: calls.append(i) or i)
            assert not waited and value == i
        assert calls == [0, 1, 2]  # dedup is concurrent-only, not a cache

    def test_concurrent_followers_share_the_leader_answer(self):
        flight = Singleflight()
        release = threading.Event()
        executions = []

        def produce():
            executions.append(True)
            release.wait(2.0)
            return "answer"

        outcomes = []
        threads = [
            threading.Thread(
                target=lambda: outcomes.append(flight.run("k", produce))
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        while flight.in_flight() == 0:
            time.sleep(0.001)
        release.set()
        for thread in threads:
            thread.join()
        assert len(executions) == 1
        assert sorted(waited for waited, _ in outcomes) == [False, True, True, True]
        assert all(value == "answer" for _, value in outcomes)
        assert flight.in_flight() == 0

    def test_leader_error_propagates_to_followers(self):
        flight = Singleflight()
        started = threading.Event()
        release = threading.Event()
        errors = []

        def explode():
            started.set()
            release.wait(2.0)
            raise ValueError("boom")

        def leader():
            try:
                flight.run("k", explode)
            except ValueError as exc:
                errors.append(("leader", str(exc)))

        def follower():
            started.wait(2.0)
            try:
                flight.run("k", lambda: "never runs")
            except ValueError as exc:
                errors.append(("follower", str(exc)))

        threads = [threading.Thread(target=leader), threading.Thread(target=follower)]
        for thread in threads:
            thread.start()
        started.wait(2.0)
        time.sleep(0.01)  # let the follower reach the flight
        release.set()
        for thread in threads:
            thread.join()
        assert sorted(errors) == [("follower", "boom"), ("leader", "boom")]


# ----------------------------------------------------------------------
# Connector integration: spans, analyze, SendRecord, streaming admission
# ----------------------------------------------------------------------
NUM_RECORDS = 60


def _connector(**kwargs) -> PostgresConnector:
    db = SQLDatabase(name="postgres")
    loaders.load_postgres(db, "Bench", "data", wisconsin_records(NUM_RECORDS))
    return PostgresConnector(db, **kwargs)


class TestConnectorIntegration:
    QUERY = 'SELECT * FROM Bench.data t WHERE t."ten" = 3'

    def test_hit_record_and_span(self):
        connector = _connector(cache=True)
        tracer = Tracer()
        connector.set_tracer(tracer)
        miss = connector.send(self.QUERY, "data")
        hit = connector.send(self.QUERY, "data")
        assert hit.records == miss.records
        assert miss.stats.result_cache_misses == 1
        assert hit.stats.result_cache_hits == 1

        miss_record, hit_record = connector.send_log[-2:]
        assert miss_record.cache_misses == 1 and miss_record.attempts == 1
        assert hit_record.cache_hits == 1 and hit_record.attempts == 0
        assert hit_record.outcome == "ok"

        miss_span, hit_span = tracer.spans[-2:]
        (probe,) = [s for s in miss_span.children if s.name == "cache"]
        assert probe.attributes["outcome"] == "miss"
        (probe,) = [s for s in hit_span.children if s.name == "cache"]
        assert probe.attributes["outcome"] == "hit"
        assert hit_span.attributes["attempts"] == 0
        assert not [s for s in hit_span.children if s.name == "attempt"]

    def test_explain_analyze_names_the_cache(self):
        connector = _connector(cache=True)
        frame = PolyFrame("Bench", "data", connector)
        cold = frame.explain(analyze=True)
        warm = frame.explain(analyze=True)
        assert "ResultCache[hit]" not in cold
        assert "ResultCache[hit]" in warm

    def test_persist_invalidates_matching_reads(self):
        connector = _connector(cache=True)
        frame = PolyFrame("Bench", "data", connector)
        before = len(frame.collect().to_records())
        frame[frame["ten"] == 3].persist("copy", "Bench")
        # The persisted target was never cached, but its dataset version
        # is registered now; reads of it key on the new vector.
        target = PolyFrame("Bench", "copy", connector)
        assert len(target.collect().to_records()) < before
        assert connector.result_cache.stats()["invalidations"] >= 2
        assert connector.dataset_versions.version("Bench.copy") == 1

    @pytest.mark.skipif(
        get_tracer() is not None,
        reason="tracing profiles every operator, which materializes "
        "streaming sends",
    )
    def test_streaming_send_admits_only_full_drains(self):
        # An explicit (ruleless) injector keeps the chaos env's seeded
        # faults out of the exact entry counts below.
        connector = _connector(cache=True, fault_injector=FaultInjector())
        query = 'SELECT * FROM Bench.data t ORDER BY t."unique1"'

        abandoned = connector.send(query, "data", stream=True)
        iterator = abandoned.iter_records()
        next(iterator)
        abandoned.close()  # truncated: must not be admitted
        assert connector.result_cache.stats()["entries"] == 0

        streamed = connector.send(query, "data", stream=True)
        rows = list(streamed.iter_records())
        assert connector.result_cache.stats()["entries"] == 1
        hit = connector.send(query, "data", stream=True)
        assert not getattr(hit, "streaming", False)
        assert hit.records == rows
        assert connector.send_log[-1].cache_hits == 1

    def test_cache_off_is_seed_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        connector = _connector()
        assert connector.result_cache is None
        connector.send(self.QUERY, "data")
        record = connector.send_log[-1]
        assert record.cache_hits == record.cache_misses == 0
        assert record.singleflight_waits == 0


# ----------------------------------------------------------------------
# Singleflight stress: N clients, one dispatcher, one backend send
# ----------------------------------------------------------------------
STRESS_CLIENTS = 8


def test_singleflight_stress_one_send_many_clients():
    cluster = GreenplumCluster(
        3, query_prep_overhead=0.0, dispatch=ThreadPoolDispatcher()
    )
    cluster.create_table("t")
    cluster.insert("t", [{"v": i, "k": i % 5} for i in range(100)])
    connector = PostgresConnector(cluster, cache=True)
    tracer = Tracer()
    connector.set_tracer(tracer)

    executions = []
    original_execute = cluster.execute

    def counting_execute(query_text, *args, **kwargs):
        executions.append(query_text)
        time.sleep(0.05)  # hold the flight open while followers pile in
        return original_execute(query_text, *args, **kwargs)

    cluster.execute = counting_execute

    query = "SELECT COUNT(*) FROM (SELECT * FROM t) x"
    barrier = threading.Barrier(STRESS_CLIENTS)
    results = [None] * STRESS_CLIENTS
    errors: list[BaseException] = []

    def client(i: int) -> None:
        try:
            barrier.wait()
            results[i] = connector.send(query, "t")
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(STRESS_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    # Exactly one backend send; everyone got the same answer.
    assert len(executions) == 1
    assert all(result.scalar() == 100 for result in results)
    waits = sum(result.stats.singleflight_waits for result in results)
    hits = sum(result.stats.result_cache_hits for result in results)
    assert waits + hits == STRESS_CLIENTS - 1
    assert waits >= 1  # the herd really collided in flight
    assert sum(r.singleflight_waits for r in connector.send_log) == waits

    # Per-client span isolation: each send is its own root dispatch span
    # with a self-contained tree — exactly one span ran an attempt.
    roots = [span for span in tracer.spans if span.name == "dispatch"]
    assert len(roots) == STRESS_CLIENTS
    attempted = [
        root
        for root in roots
        if any(child.name == "attempt" for child in root.children)
    ]
    assert len(attempted) == 1
    for root in roots:
        (probe,) = [s for s in root.children if s.name == "cache"]
        if root is attempted[0]:
            assert probe.attributes["outcome"] == "miss"
        else:
            assert root.attributes["attempts"] == 0

    # After the herd: a plain repeat is a straight cache hit.
    follow_up = connector.send(query, "t")
    assert follow_up.stats.result_cache_hits == 1
    assert len(executions) == 1
