"""Adaptive admission control tests: AIMD limits, bounded queueing, shedding.

Controller units run on fake clocks where possible; the queueing tests
use real (short) waits because admission blocks on a condition variable.
Connector and cluster integration asserts the observable contract:
shed queries are logged with outcome ``'shed'`` and zero attempts, a
streamed query holds its slot until the drain finishes, and the knob is
off by default (seed-identical).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import PostgresConnector
from repro.cluster import GreenplumCluster
from repro.cluster.base import admission_gate
from repro.errors import OverloadError, QueryTimeoutError
from repro.obs import metrics
from repro.obs.trace import get_tracer
from repro.resilience import FaultInjector
from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import Deadline
from repro.sqlengine import SQLDatabase
from repro.wisconsin import loaders, wisconsin_records

QUERY = "SELECT COUNT(*) FROM t x"

#: Operator profiling under the CI trace matrix (``REPRO_TRACE=1``)
#: materializes streaming sends — the engines' documented fallback — so
#: tests asserting *real* streaming have nothing to observe there.
needs_real_streaming = pytest.mark.skipif(
    get_tracer() is not None,
    reason="tracing profiles every operator, which materializes streaming sends",
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def single_node_connector(injector=None, **kwargs) -> PostgresConnector:
    db = SQLDatabase()
    db.create_table("t")
    db.insert("t", [{"a": 1}, {"a": 2}])
    return PostgresConnector(db, fault_injector=injector, **kwargs)


def tiny_controller(**kwargs) -> AdmissionController:
    kwargs.setdefault("initial_limit", 1)
    kwargs.setdefault("min_limit", 1)
    kwargs.setdefault("max_limit", 1)
    kwargs.setdefault("max_queue", 0)
    return AdmissionController(**kwargs)


# ----------------------------------------------------------------------
# Controller units
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_fast_path_admits_without_waiting(self):
        ctrl = AdmissionController()
        ticket = ctrl.acquire()
        assert ticket.queue_wait_seconds == 0.0
        assert ctrl.inflight == 1
        ticket.release(0.01)
        assert ctrl.inflight == 0
        assert ctrl.stats()["admitted"] == 1

    def test_release_is_idempotent(self):
        ctrl = AdmissionController()
        ticket = ctrl.acquire()
        ticket.release(0.01)
        ticket.release(0.01)
        assert ctrl.inflight == 0
        assert ctrl.ewma_latency == pytest.approx(0.01)

    def test_additive_increase_on_healthy_completions(self):
        ctrl = AdmissionController(initial_limit=2, max_limit=8, max_queue=0)
        for _ in range(4):
            ctrl.acquire().release(0.1)
        # First sample only seeds the EWMA; the next three healthy
        # completions grow the limit by ~1/limit each: 2.0 -> 3.245.
        assert ctrl.limit == 3
        assert ctrl.ewma_latency == pytest.approx(0.1)

    def test_multiplicative_decrease_on_degraded_latency(self):
        ctrl = AdmissionController(initial_limit=8, max_limit=8, max_queue=0)
        ctrl.acquire().release(0.1)  # baseline
        ctrl.acquire().release(1.0)  # 10x slower than the EWMA: degrade
        assert ctrl.limit == 5  # 8 * 0.7 = 5.6, floored
        # The slow sample still folds into the baseline (slowly).
        assert ctrl.ewma_latency == pytest.approx(0.2 * 1.0 + 0.8 * 0.1)

    def test_limit_never_falls_below_min(self):
        ctrl = AdmissionController(
            initial_limit=4, min_limit=4, max_limit=8, max_queue=0
        )
        ctrl.acquire().release(0.1)  # baseline
        ctrl.acquire().release(10.0)  # degrade wants 4 * 0.7 = 2.8...
        assert ctrl.limit == 4  # ...but the floor holds

    def test_failed_completion_feeds_nothing_back(self):
        ctrl = AdmissionController(initial_limit=4, max_limit=8, max_queue=0)
        ctrl.acquire().release(0.1)
        before_limit, before_ewma = ctrl.limit, ctrl.ewma_latency
        ctrl.acquire().release(60.0, ok=False)  # an error, not a latency sample
        assert ctrl.limit == before_limit
        assert ctrl.ewma_latency == before_ewma
        assert ctrl.inflight == 0

    def test_full_queue_sheds_with_retry_after(self):
        ctrl = tiny_controller(backend="pg")
        hold = ctrl.acquire()
        before = metrics.counter_value("queries_shed_total", reason="queue_full")
        with pytest.raises(OverloadError, match="queue is full") as excinfo:
            ctrl.acquire()
        assert excinfo.value.retry_after >= 0.0
        assert ctrl.stats()["shed"] == 1
        assert metrics.counter_value(
            "queries_shed_total", reason="queue_full"
        ) == before + 1
        hold.release(0.01)

    def test_hopeless_deadline_is_shed_up_front(self):
        clock = FakeClock()
        ctrl = tiny_controller(max_queue=4, clock=clock)
        ctrl.acquire().release(1.0)  # EWMA baseline: ~1s per wave
        hold = ctrl.acquire()
        before = metrics.counter_value("queries_shed_total", reason="deadline")
        deadline = Deadline(0.01, clock=clock)
        with pytest.raises(OverloadError, match="deadline budget") as excinfo:
            ctrl.acquire(deadline)
        assert excinfo.value.retry_after == pytest.approx(1.0)
        assert metrics.counter_value(
            "queries_shed_total", reason="deadline"
        ) == before + 1
        hold.release(1.0)

    def test_queued_caller_proceeds_when_a_slot_frees(self):
        ctrl = tiny_controller(max_queue=4)
        hold = ctrl.acquire()
        admitted = []

        def waiter():
            ticket = ctrl.acquire()
            admitted.append(ticket.queue_wait_seconds)
            ticket.release(0.01)

        thread = threading.Thread(target=waiter)
        thread.start()
        for _ in range(200):
            if ctrl.queue_depth == 1:
                break
            time.sleep(0.005)
        assert ctrl.queue_depth == 1
        hold.release(0.01)
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert admitted and admitted[0] >= 0.0
        assert ctrl.inflight == 0
        assert ctrl.queue_depth == 0

    def test_deadline_expiry_while_queued_times_out(self):
        ctrl = tiny_controller(max_queue=4)
        hold = ctrl.acquire()  # never released while we wait
        with pytest.raises(QueryTimeoutError, match="admission queue"):
            ctrl.acquire(Deadline(0.05))
        assert ctrl.queue_depth == 0  # the waiter cleaned up after itself
        hold.release(0.01)

    def test_gauges_track_controller_state(self):
        ctrl = tiny_controller(backend="pg-gauges", max_queue=4)
        ticket = ctrl.acquire()
        assert metrics.gauge_value("inflight", backend="pg-gauges") == 1
        ticket.release(0.01)
        assert metrics.gauge_value("inflight", backend="pg-gauges") == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(min_limit=0)
        with pytest.raises(ValueError):
            AdmissionController(initial_limit=9, max_limit=8)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionController(degrade_multiplier=1.0)
        with pytest.raises(ValueError):
            AdmissionController(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            AdmissionController(decrease_factor=1.0)


# ----------------------------------------------------------------------
# Connector integration
# ----------------------------------------------------------------------
class TestConnectorAdmission:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ADMISSION", raising=False)
        assert single_node_connector().admission is None

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADMISSION", "1")
        connector = single_node_connector()
        assert connector.admission is not None
        assert connector.admission.backend == "PostgresConnector"

    def test_shed_send_is_logged_and_counted(self):
        ctrl = tiny_controller()
        connector = single_node_connector(admission=ctrl)
        hold = ctrl.acquire()
        before = metrics.counter_value(
            "queries_shed_total", backend="PostgresConnector"
        )
        with pytest.raises(OverloadError):
            connector.send(QUERY, "t")
        record = connector.send_log[-1]
        assert record.outcome == "shed"
        assert record.attempts == 0  # never reached the backend
        assert metrics.counter_value(
            "queries_shed_total", backend="PostgresConnector"
        ) == before + 1
        hold.release(0.01)
        result = connector.send(QUERY, "t")  # slot freed: admitted again
        assert result.scalar() == 2
        assert connector.send_log[-1].outcome == "ok"
        assert ctrl.inflight == 0

    def test_admitted_send_records_queue_wait(self):
        connector = single_node_connector(admission=True)
        result = connector.send(QUERY, "t")
        assert result.scalar() == 2
        record = connector.send_log[-1]
        assert record.outcome == "ok"
        assert record.queue_wait_ms >= 0.0
        assert connector.admission.stats()["admitted"] == 1
        assert connector.admission.inflight == 0

    @needs_real_streaming
    def test_streaming_send_holds_its_slot_until_drained(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEADLINE", raising=False)
        ctrl = AdmissionController(initial_limit=2, max_limit=2, max_queue=0)
        # An explicit empty injector keeps the CI chaos env's seeded
        # faults out of the exact slot accounting below.
        connector = single_node_connector(FaultInjector(), admission=ctrl)
        result = connector.send("SELECT * FROM t x", "t", stream=True)
        assert getattr(result, "streaming", False)
        assert ctrl.inflight == 1  # still admitted while undrained
        rows = list(result.iter_records())
        assert len(rows) == 2
        assert ctrl.inflight == 0  # drain returned the slot

    @needs_real_streaming
    def test_closed_stream_returns_its_slot(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEADLINE", raising=False)
        ctrl = AdmissionController(initial_limit=2, max_limit=2, max_queue=0)
        connector = single_node_connector(FaultInjector(), admission=ctrl)
        result = connector.send("SELECT * FROM t x", "t", stream=True)
        records = result.iter_records()
        next(records)
        assert ctrl.inflight == 1
        result.close()  # truncated drain: slot back, counted as not-ok
        assert ctrl.inflight == 0


# ----------------------------------------------------------------------
# Cluster (coordinator) integration
# ----------------------------------------------------------------------
class TestClusterAdmission:
    NUM_RECORDS = 40
    COUNT = "SELECT COUNT(*) FROM Bench.data"

    def build_cluster(self, **kwargs) -> GreenplumCluster:
        cluster = GreenplumCluster(
            2,
            fault_injector=FaultInjector(),
            replication_factor=1,
            **kwargs,
        )
        cluster.create_table("Bench.data", primary_key=loaders.PRIMARY_KEY)
        cluster.insert(
            "Bench.data", wisconsin_records(self.NUM_RECORDS), shard_key="unique1"
        )
        return cluster

    def test_gate_is_a_no_op_without_a_controller(self):
        with admission_gate(None):
            pass  # seed path: nothing acquired, nothing to release

    def test_gate_releases_on_error(self):
        ctrl = tiny_controller()
        with pytest.raises(RuntimeError, match="boom"):
            with admission_gate(ctrl):
                assert ctrl.inflight == 1
                raise RuntimeError("boom")
        assert ctrl.inflight == 0

    def test_cluster_execute_passes_through_the_gate(self):
        cluster = self.build_cluster(admission=True)
        assert cluster.admission is not None
        assert cluster.admission.backend == cluster.name
        result = cluster.execute(self.COUNT)
        assert result.scalar() == self.NUM_RECORDS
        assert cluster.admission.stats()["admitted"] == 1
        assert cluster.admission.inflight == 0

    def test_saturated_shared_controller_sheds_at_the_coordinator(self):
        shared = tiny_controller(backend="greenplum-fleet")
        cluster = self.build_cluster(admission=shared)
        hold = shared.acquire()
        with pytest.raises(OverloadError):
            cluster.execute(self.COUNT)
        hold.release(0.01)
        assert cluster.execute(self.COUNT).scalar() == self.NUM_RECORDS
        assert shared.inflight == 0

    @pytest.mark.parametrize("stream", [False, True], ids=["gathered", "streamed"])
    def test_time_queued_at_the_cluster_gate_is_recorded(self, stream):
        # The gate's wait used to be dropped: `queue_wait_ms` stayed 0.0
        # on the gathered stats and on the connector's SendRecord.
        held_for = 0.05
        shared = tiny_controller(max_queue=4)
        cluster = self.build_cluster(admission=shared)
        connector = PostgresConnector(
            cluster, fault_injector=FaultInjector(), admission=False, cache=False
        )
        hold = shared.acquire()  # the only slot: the send must queue

        def release_once_queued() -> None:
            while shared.queue_depth == 0:
                time.sleep(0.001)
            time.sleep(held_for)  # measured from when the send was queued
            hold.release(held_for)

        holder = threading.Thread(target=release_once_queued)
        holder.start()
        query = "SELECT * FROM Bench.data t" if stream else self.COUNT
        try:
            result = connector.send(query, "Bench.data", stream=stream)
        finally:
            holder.join()
        rows = list(result.iter_records())  # the stamp survives the drain
        assert len(rows) == (self.NUM_RECORDS if stream else 1)
        assert result.stats.queue_wait_ms >= held_for * 1000.0
        assert connector.send_log[-1].queue_wait_ms == result.stats.queue_wait_ms
        assert shared.inflight == 0

    def test_cluster_admission_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ADMISSION", raising=False)
        cluster = GreenplumCluster(
            2, fault_injector=FaultInjector(), replication_factor=1
        )
        assert cluster.admission is None
