"""Resilient dispatch tests: faults, retries, timeouts, breakers, partial scatter-gather.

Every scenario is deterministic: fault injectors and retry policies own
seeded RNGs, breakers take a fake clock, and retry sleeps are no-ops.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict

import pytest

from repro import PolyFrame, PostgresConnector
from repro.bench.expressions import benchmark_params, expression
from repro.bench.runner import run_expression
from repro.bench.systems import SystemUnderTest
from repro.cluster import GreenplumCluster
from repro.cluster.base import scatter_gather, shard_records, stable_hash
from repro.cluster.merge import MergeSpec
from repro.cluster.replica import ReplicaSet
from repro.core.connectors import DatabaseConnector
from repro.errors import (
    CircuitOpenError,
    ConnectorError,
    ExecutionError,
    QueryTimeoutError,
    ReproError,
    ShardFailureError,
    TransientBackendError,
)
from repro.obs import Tracer, metrics
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultInjector,
    FaultRule,
    QueryTimeout,
    RetryPolicy,
)
from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import CancellationToken, Deadline, budget_scope
from repro.sqlengine import SQLDatabase
from repro.sqlengine.result import QueryStats, ResultSet, StreamingResultSet
from repro.wisconsin import loaders, wisconsin_records

NUM_RECORDS = 120
NUM_NODES = 4


def no_sleep_policy(max_attempts: int = 3, **kwargs) -> RetryPolicy:
    kwargs.setdefault("sleep", lambda seconds: None)
    return RetryPolicy(max_attempts, **kwargs)


def make_cluster(injector=None, policy=None, *, allow_partial=False) -> GreenplumCluster:
    # Pin replication_factor=1 and give the cluster its own (possibly
    # empty) injector: the exact attempt/retry counts asserted below
    # assume the seed's single-copy layout, and must hold even when the
    # CI chaos matrix sets REPRO_REPLICATION / REPRO_NODE_DOWN /
    # REPRO_FAULT_RATE process-wide.
    cluster = GreenplumCluster(
        NUM_NODES,
        retry_policy=policy,
        fault_injector=injector if injector is not None else FaultInjector(),
        allow_partial=allow_partial,
        replication_factor=1,
    )
    records = wisconsin_records(NUM_RECORDS)
    for dataset in ("Bench.data", "Bench.data2"):
        cluster.create_table(dataset, primary_key=loaders.PRIMARY_KEY)
        cluster.insert(dataset, records, shard_key="unique1")
    return cluster


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# RetryPolicy / QueryTimeout units
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_classification(self):
        policy = no_sleep_policy(3)
        assert policy.is_retryable(TransientBackendError("x"))
        assert policy.is_retryable(QueryTimeoutError("x"))
        assert not policy.is_retryable(ExecutionError("x"))
        assert not policy.is_retryable(CircuitOpenError("x"))

    def test_budget_exhaustion(self):
        policy = no_sleep_policy(3)
        err = TransientBackendError("x")
        assert policy.should_retry(err, 1)
        assert policy.should_retry(err, 2)
        assert not policy.should_retry(err, 3)

    def test_backoff_grows_and_caps(self):
        policy = no_sleep_policy(6, base_delay=0.01, max_delay=0.04, jitter=0.0)
        delays = [policy.backoff_delay(attempt) for attempt in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.04, 0.04]

    def test_jitter_is_seeded(self):
        a = no_sleep_policy(3, jitter=0.5, seed=11)
        b = no_sleep_policy(3, jitter=0.5, seed=11)
        assert [a.backoff_delay(1) for _ in range(5)] == [b.backoff_delay(1) for _ in range(5)]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(0)
        with pytest.raises(ValueError):
            RetryPolicy(2, jitter=1.5)
        with pytest.raises(ValueError):
            QueryTimeout(0)

    def test_timeout_check(self):
        deadline = QueryTimeout(0.01)
        deadline.check(0.005)  # within budget: no raise
        with pytest.raises(QueryTimeoutError):
            deadline.check(0.02, backend="pg", query="SELECT 1")


# ----------------------------------------------------------------------
# CircuitBreaker unit
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, clock):
        return CircuitBreaker(
            window=4,
            failure_rate_threshold=0.5,
            min_calls=2,
            cooldown_seconds=1.0,
            clock=clock,
            name="pg",
        )

    def test_opens_at_failure_rate(self):
        breaker = self.make(FakeClock())
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == CLOSED  # below min_calls
        breaker.record_failure()
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_successes_keep_rate_low(self):
        breaker = self.make(FakeClock())
        for _ in range(3):
            breaker.record_success()
        breaker.record_failure()  # 1 failure in a window of 4: 25% < 50%
        assert breaker.state == CLOSED

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(1.5)
        breaker.allow()  # cool-down elapsed: probe allowed
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_probe_reopens_on_failure(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.5)
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.times_opened == 2
        with pytest.raises(CircuitOpenError):
            breaker.allow()


# ----------------------------------------------------------------------
# FaultInjector unit
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_fail_first_per_key(self):
        injector = FaultInjector(seed=5)
        injector.fail_first(2)
        for key in ("a", "b"):
            for _ in range(2):
                with pytest.raises(TransientBackendError):
                    injector.before_request(key)
            injector.before_request(key)  # third request succeeds
        assert injector.injected_faults() == 4
        assert injector.requests("a") == 3

    def test_rate_sequence_is_seeded(self):
        def fault_pattern(seed):
            injector = FaultInjector(seed=seed)
            injector.transient_rate(0.5)
            pattern = []
            for _ in range(20):
                try:
                    injector.before_request("k")
                    pattern.append(False)
                except TransientBackendError:
                    pattern.append(True)
            return pattern

        assert fault_pattern(9) == fault_pattern(9)
        assert any(fault_pattern(9))
        assert not all(fault_pattern(9))

    def test_down_matches_by_substring(self):
        injector = FaultInjector()
        injector.down("#shard2")
        injector.before_request("greenplum[4]#shard0")
        with pytest.raises(TransientBackendError):
            injector.before_request("greenplum[4]#shard2")

    def test_latency_uses_injected_sleep(self):
        naps = []
        injector = FaultInjector(sleep=naps.append)
        rule = injector.latency(0.25, max_faults=1)
        injector.before_request("k")
        injector.before_request("k")  # max_faults=1: only one nap
        assert naps == [0.25]
        assert rule.exhausted

    def test_restore_and_reset(self):
        injector = FaultInjector()
        rule = injector.down("k")
        with pytest.raises(TransientBackendError):
            injector.before_request("k")
        injector.restore(rule)
        injector.before_request("k")
        injector.reset()
        assert injector.requests("k") == 0

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(kind="explode")
        with pytest.raises(ValueError):
            FaultRule(rate=2.0)


# ----------------------------------------------------------------------
# Connector-level send(): retries, timeout, breaker, bookkeeping
# ----------------------------------------------------------------------
def single_node_connector(injector=None, **kwargs) -> PostgresConnector:
    db = SQLDatabase()
    db.create_table("t")
    db.insert("t", [{"a": 1}, {"a": 2}])
    return PostgresConnector(db, fault_injector=injector, **kwargs)


class TestConnectorResilience:
    def test_transient_failures_are_retried(self):
        injector = FaultInjector()
        injector.fail_first(2, backend="PostgresConnector")
        connector = single_node_connector(injector, retry_policy=no_sleep_policy(3))
        result = connector.send("SELECT COUNT(*) FROM t x", "t")
        assert result.scalar() == 2
        record = connector.send_log[-1]
        assert record.attempts == 3
        assert record.outcome == "ok"
        assert record.retries == 2

    def test_budget_exhaustion_raises_and_logs(self):
        injector = FaultInjector()
        injector.down("PostgresConnector")
        connector = single_node_connector(injector, retry_policy=no_sleep_policy(3))
        with pytest.raises(TransientBackendError):
            connector.send("SELECT COUNT(*) FROM t x", "t")
        record = connector.send_log[-1]
        assert record.attempts == 3
        assert record.outcome == "error"

    def test_no_policy_means_no_retry(self):
        injector = FaultInjector()
        injector.fail_first(1)
        connector = single_node_connector(injector)
        with pytest.raises(TransientBackendError):
            connector.send("SELECT COUNT(*) FROM t x", "t")
        assert connector.send_log[-1].attempts == 1

    def test_injected_latency_trips_timeout_then_recovers(self):
        naps = []

        def fake_sleep(seconds):
            naps.append(seconds)

        injector = FaultInjector(sleep=fake_sleep)
        # Simulated latency: the rule books a nap but the fake sleep makes
        # it instant, so force the deadline check with a real stall below.
        connector = single_node_connector(injector, timeout=QueryTimeout(0.005))
        injector.latency(0.25, max_faults=1)
        # Replace the fake with a real (but short) stall for one attempt.
        injector.sleep = lambda seconds: __import__("time").sleep(0.02)
        with pytest.raises(QueryTimeoutError):
            connector.send("SELECT COUNT(*) FROM t x", "t")
        assert connector.send_log[-1].outcome == "error"
        # The latency rule is exhausted, so the next send is fast and fine.
        result = connector.send("SELECT COUNT(*) FROM t x", "t")
        assert result.scalar() == 2

    def test_timeout_accepts_bare_seconds(self):
        connector = single_node_connector(timeout=5.0)
        assert isinstance(connector.timeout, QueryTimeout)
        assert connector.timeout.seconds == 5.0

    def test_breaker_fails_fast_and_recovers(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            window=4, failure_rate_threshold=0.5, min_calls=2,
            cooldown_seconds=1.0, clock=clock, name="pg",
        )
        injector = FaultInjector()
        outage = injector.down("PostgresConnector")
        connector = single_node_connector(injector, circuit_breaker=breaker)
        for _ in range(2):
            with pytest.raises(TransientBackendError):
                connector.send("SELECT COUNT(*) FROM t x", "t")
        assert breaker.state == OPEN
        requests_before = injector.requests("PostgresConnector")
        with pytest.raises(CircuitOpenError):
            connector.send("SELECT COUNT(*) FROM t x", "t")
        # The breaker rejected without touching the backend.
        assert injector.requests("PostgresConnector") == requests_before
        assert connector.send_log[-1].outcome == "rejected"
        # Backend comes back; after the cool-down the probe closes the circuit.
        injector.restore(outage)
        clock.advance(1.5)
        result = connector.send("SELECT COUNT(*) FROM t x", "t")
        assert result.scalar() == 2
        assert breaker.state == CLOSED


# ----------------------------------------------------------------------
# Scatter-gather: retries, shard failure, partial results
# ----------------------------------------------------------------------
class TestScatterGatherResilience:
    def test_zero_shards_is_a_clear_error(self):
        # A gather is defined over a ReplicaSet, which is where a
        # shard-less cluster is refused.
        with pytest.raises(ReproError, match="num_shards must be >= 1"):
            scatter_gather(
                lambda shard, node: ResultSet(),
                ReplicaSet(0, 1, 1),
                MergeSpec(kind="concat"),
            )

    def test_first_attempt_failures_recover_via_retries(self):
        injector = FaultInjector()
        injector.fail_first(1)  # every shard's first attempt fails
        cluster = make_cluster(injector, no_sleep_policy(3))
        result = cluster.execute("SELECT COUNT(*) FROM (SELECT * FROM Bench.data) x")
        assert result.scalar() == NUM_RECORDS
        assert result.shard_attempts == (2, 2, 2, 2)
        assert result.stats.retries == NUM_NODES
        assert result.stats.failed_shards == 0
        assert not result.partial

    def test_down_shard_raises_precise_error(self):
        injector = FaultInjector()
        injector.down("#shard2")
        cluster = make_cluster(injector, no_sleep_policy(3))
        with pytest.raises(ShardFailureError) as excinfo:
            cluster.execute("SELECT COUNT(*) FROM (SELECT * FROM Bench.data) x")
        assert excinfo.value.shard == 2
        assert excinfo.value.attempts == 3

    def test_down_shard_with_allow_partial_degrades(self):
        injector = FaultInjector()
        injector.down("#shard2")
        cluster = make_cluster(injector, no_sleep_policy(3), allow_partial=True)
        full = GreenplumCluster(NUM_NODES)
        result = cluster.execute("SELECT COUNT(*) FROM (SELECT * FROM Bench.data) x")
        assert result.partial
        assert result.stats.failed_shards == 1
        assert result.stats.retries == 2  # the two doomed retries of shard 2
        assert "partial" in result.plan_text
        # The surviving shards answer for their data only.
        lost = len(shard_records(wisconsin_records(NUM_RECORDS), NUM_NODES, "unique1")[2])
        assert result.scalar() == NUM_RECORDS - lost
        assert lost > 0

    def test_all_shards_down_raises_even_with_allow_partial(self):
        injector = FaultInjector()
        injector.down("greenplum")
        cluster = make_cluster(injector, no_sleep_policy(2), allow_partial=True)
        with pytest.raises(ShardFailureError, match="every shard"):
            cluster.execute("SELECT COUNT(*) FROM (SELECT * FROM Bench.data) x")

    def test_query_errors_are_not_shard_outages(self):
        cluster = make_cluster(None, no_sleep_policy(3), allow_partial=True)
        # A broken query must surface as a query error on every code path,
        # never be swallowed into a "partial" answer.
        with pytest.raises(ReproError) as excinfo:
            cluster.execute("SELECT nosuchcolumn+ FROM Bench.data x")
        assert not isinstance(excinfo.value, ShardFailureError)


# ----------------------------------------------------------------------
# End-to-end: PolyFrame expressions + benchmark bookkeeping
# ----------------------------------------------------------------------
def make_system(injector=None, policy=None, *, allow_partial=False):
    cluster = make_cluster(injector, policy, allow_partial=allow_partial)
    # The connector gets its own (empty) injector so env-driven global
    # injection (the CI chaos job) cannot skew the exact counts asserted
    # below; all faults come from the cluster-level injector.
    connector = PostgresConnector(cluster, fault_injector=FaultInjector())

    def create():
        df = PolyFrame("Bench", "data", connector)
        df2 = PolyFrame("Bench", "data2", connector)
        return df, df2

    return SystemUnderTest(
        "PolyFrame-Greenplum", "polyframe", create, engine=cluster, connector=connector
    )


class TestEndToEnd:
    def test_benchmark_expression_survives_first_attempt_failures(self):
        injector = FaultInjector()
        injector.fail_first(1)
        system = make_system(injector, no_sleep_policy(3))
        measurement = run_expression(
            system, expression(1), benchmark_params(), dataset="XS"
        )
        assert measurement.status == "ok"
        assert measurement.retries == NUM_NODES  # one retry per shard
        assert not measurement.degraded
        record = system.connector.send_log[-1]
        assert record.shard_retries == NUM_NODES
        assert record.outcome == "ok"

    def test_polyframe_filter_count_with_flaky_shards(self):
        injector = FaultInjector()
        injector.fail_first(1)
        system = make_system(injector, no_sleep_policy(3))
        df, _ = system.create_frames()
        count = len(df[df["ten"] == 3])
        expected = sum(1 for r in wisconsin_records(NUM_RECORDS) if r["ten"] == 3)
        assert count == expected
        assert injector.injected_faults() > 0

    def test_benchmark_expression_degrades_with_downed_shard(self):
        injector = FaultInjector()
        injector.down("#shard3")
        system = make_system(injector, no_sleep_policy(3), allow_partial=True)
        measurement = run_expression(
            system, expression(1), benchmark_params(), dataset="XS"
        )
        assert measurement.status == "ok"
        assert measurement.degraded
        assert measurement.retries == 2
        assert system.connector.send_log[-1].outcome == "partial"

    def test_shard_failure_propagates_without_allow_partial(self):
        injector = FaultInjector()
        injector.down("#shard3")
        system = make_system(injector, no_sleep_policy(3))
        df, _ = system.create_frames()
        with pytest.raises(ShardFailureError):
            len(df)
        assert system.connector.send_log[-1].outcome == "error"


# ----------------------------------------------------------------------
# Deterministic sharding (regression for PYTHONHASHSEED-dependent hash())
# ----------------------------------------------------------------------
class TestStableSharding:
    def test_pinned_placements(self):
        # crc32-of-repr placements are process-independent; pin them so a
        # hash change can never silently reshuffle shard layouts.
        assert [stable_hash(v) % 4 for v in (0, 1, 2, 3)] == [1, 3, 1, 3]
        assert [stable_hash(v) % 3 for v in (0, 1, 2, 3)] == [2, 2, 1, 1]
        assert stable_hash("Aaa") % 4 == 3
        assert stable_hash(None) % 4 == 1
        assert stable_hash(3.5) % 4 == 0

    def test_distinct_types_hash_distinctly(self):
        assert stable_hash(1) != stable_hash("1")

    def test_shard_records_uses_stable_hash(self):
        records = [{"k": v} for v in (0, 1, 2, 3)]
        shards = shard_records(records, 4, shard_key="k")
        assert [len(s) for s in shards] == [0, 2, 0, 2]
        assert shards[1] == [{"k": 0}, {"k": 2}]
        assert shards[3] == [{"k": 1}, {"k": 3}]


# ----------------------------------------------------------------------
# Env-driven injection, as used by the CI chaos job
# ----------------------------------------------------------------------
class TestGlobalInjection:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_RATE", raising=False)
        connector = single_node_connector()
        assert connector.send("SELECT COUNT(*) FROM t x", "t").scalar() == 2
        assert connector.send_log[-1].attempts == 1


# ----------------------------------------------------------------------
# One exit: every way a send() can end, as one table
# ----------------------------------------------------------------------
class StubConnector(DatabaseConnector):
    """A connector whose backend is whatever the scenario hands it."""

    language = "sql"

    def __init__(self, execute=None, *, execute_stream=None, **kwargs):
        # Explicit (possibly empty) knobs keep the CI matrices' process-wide
        # chaos, cache, admission and deadline settings out of the table.
        kwargs.setdefault("fault_injector", FaultInjector())
        kwargs.setdefault("cache", False)
        kwargs.setdefault("admission", False)
        kwargs.setdefault("deadline", 0)
        super().__init__(**kwargs)
        self._run = execute or (lambda: ResultSet(records=list(STUB_ROWS)))
        self._run_stream = execute_stream

    def _execute(self, query, collection):
        return self._run()

    def _execute_stream(self, query, collection):
        return self._run_stream() if self._run_stream is not None else self._run()

    def collection_exists(self, namespace, collection):
        return True


STUB_ROWS = ({"v": 1}, {"v": 2}, {"v": 3})


def _held_controller(**kwargs) -> AdmissionController:
    controller = AdmissionController(initial_limit=1, max_limit=1, **kwargs)
    controller.acquire()  # the only slot, never released
    return controller


def _send_all(connector, sends: int = 1, *, stream: bool = False):
    """Send *sends* times in sequence; failures are part of the scenario."""
    results = []
    for _ in range(sends):
        try:
            results.append(connector.send("Q", "t", stream=stream))
        except ReproError:
            results.append(None)
    return results


def _leader_and_follower(connector, gate: threading.Event):
    """Two identical sends: the second arrives while the first executes."""
    threads = [threading.Thread(target=_send_all, args=(connector,)) for _ in range(2)]
    threads[0].start()
    while connector._singleflight.in_flight() == 0:
        time.sleep(0.001)
    threads[1].start()
    time.sleep(0.05)  # the follower reaches the wait
    gate.set()
    for thread in threads:
        thread.join()


def exit_ok(stub):
    connector = stub()
    _send_all(connector)
    return connector, [("ok", 1, 0, 0, 0)]


def exit_partial(stub):
    connector = stub(lambda: ResultSet(records=list(STUB_ROWS), partial=True))
    _send_all(connector)
    return connector, [("partial", 1, 0, 0, 0)]


def exit_error_after_the_last_attempt(stub):
    injector = FaultInjector()
    injector.fail_first(5)
    connector = stub(fault_injector=injector, retry_policy=no_sleep_policy(3))
    _send_all(connector)
    return connector, [("error", 3, 0, 0, 0)]


def exit_breaker_rejected(stub):
    injector = FaultInjector()
    injector.fail_first(1)
    breaker = CircuitBreaker(window=1, min_calls=1, cooldown_seconds=1000.0)
    connector = stub(fault_injector=injector, circuit_breaker=breaker)
    _send_all(connector, 2)
    return connector, [("error", 1, 0, 0, 0), ("rejected", 0, 0, 0, 0)]


def exit_shed(stub):
    connector = stub(admission=_held_controller(max_queue=0))
    _send_all(connector)
    return connector, [("shed", 0, 0, 0, 0)]


def exit_deadline_expired_in_the_queue(stub):
    connector = stub(admission=_held_controller(max_queue=4), deadline=0.02)
    _send_all(connector)
    return connector, [("error", 0, 0, 0, 0)]


def exit_deadline_expired_before_an_attempt(stub):
    clock = FakeClock()
    connector = stub()
    with budget_scope(Deadline(5.0, clock=clock)):
        clock.advance(6.0)
        _send_all(connector)
    return connector, [("error", 0, 0, 0, 0)]


def exit_cancelled(stub):
    token = CancellationToken()
    token.cancel("user abort")
    connector = stub()
    with budget_scope(token=token):
        _send_all(connector)
    return connector, [("cancelled", 0, 0, 0, 0)]


def exit_cache_hit(stub):
    connector = stub(cache=True)
    _send_all(connector, 2)
    return connector, [("ok", 1, 0, 1, 0), ("ok", 0, 1, 0, 0)]


def exit_singleflight_follower(stub):
    gate = threading.Event()

    def gated():
        gate.wait(5.0)
        return ResultSet(records=list(STUB_ROWS))

    connector = stub(gated, cache=True)
    _leader_and_follower(connector, gate)
    return connector, [("ok", 1, 0, 1, 0), ("ok", 0, 0, 1, 1)]


def exit_follower_of_a_failed_leader(stub):
    gate = threading.Event()

    def gated():
        gate.wait(5.0)
        raise ExecutionError("no such table")

    connector = stub(gated, cache=True)
    _leader_and_follower(connector, gate)
    return connector, [("error", 1, 0, 1, 0), ("error", 0, 0, 1, 1)]


def _counting_stream() -> StreamingResultSet:
    """A stream whose scan counter only moves as it drains."""
    stats = QueryStats()

    def source():
        for row in STUB_ROWS:
            stats.heap_fetches += 1
            yield row

    return StreamingResultSet(source(), stats=stats)


def exit_stream_restamped_on_drain(stub):
    connector = stub(execute_stream=_counting_stream)
    (result,) = _send_all(connector, stream=True)
    assert list(result.iter_records()) == list(STUB_ROWS)
    assert connector.send_log[-1].rows_scanned == len(STUB_ROWS)  # restamped in place
    return connector, [("ok", 1, 0, 0, 0)]


def exit_stream_opened_on_the_third_try(stub):
    injector = FaultInjector()
    injector.fail_first(2)
    connector = stub(
        execute_stream=_counting_stream,
        fault_injector=injector,
        retry_policy=no_sleep_policy(3),
    )
    (result,) = _send_all(connector, stream=True)
    assert list(result.iter_records()) == list(STUB_ROWS)
    return connector, [("ok", 3, 0, 0, 0)]


SEND_EXITS = [
    exit_ok,
    exit_partial,
    exit_error_after_the_last_attempt,
    exit_breaker_rejected,
    exit_shed,
    exit_deadline_expired_in_the_queue,
    exit_deadline_expired_before_an_attempt,
    exit_cancelled,
    exit_cache_hit,
    exit_singleflight_follower,
    exit_follower_of_a_failed_leader,
    exit_stream_restamped_on_drain,
    exit_stream_opened_on_the_third_try,
]


@pytest.mark.parametrize("scenario", SEND_EXITS, ids=lambda fn: fn.__name__)
def test_every_send_ends_through_the_one_exit(scenario):
    tracer = Tracer()

    def stub(*args, **kwargs) -> StubConnector:
        connector = StubConnector(*args, **kwargs)
        connector.set_tracer(tracer)
        return connector

    observed = metrics.histogram("query_seconds", backend="StubConnector")
    observed_before = observed.count

    connector, expected = scenario(stub)

    # Exactly one record per send(), carrying the seed's values.
    log = connector.send_log
    got = [
        (r.outcome, r.attempts, r.cache_hits, r.cache_misses, r.singleflight_waits)
        for r in log
    ]
    assert sorted(got) == sorted(expected)  # threads append in either order
    # query_seconds: once per answered send, never for a failed one.
    answered = [r for r in log if r.outcome in ("ok", "partial")]
    assert observed.count - observed_before == len(answered)
    # One dispatch span per send, carrying the full record (plus the row
    # count when there is an answer) on top of what it was opened with.
    dispatches = [span for span in tracer.spans if span.name == "dispatch"]
    assert len(dispatches) == len(log)
    mirrored = []
    for span in dispatches:
        attrs = dict(span.attributes)
        assert attrs.pop("backend") == "StubConnector"
        assert attrs.pop("collection") == "t"
        failed = attrs.pop("error", None) is not None
        assert failed == (attrs["outcome"] not in ("ok", "partial"))
        assert ("rows" in attrs) == (not failed)
        assert attrs.pop("rows", len(STUB_ROWS)) == len(STUB_ROWS)
        mirrored.append(attrs)
    key = lambda row: row["real_seconds"]  # noqa: E731 - unique per send
    assert sorted(mirrored, key=key) == sorted(map(asdict, log), key=key)

