"""Pluggable shard dispatch: serial/thread parity, racing, and stress.

The tentpole guarantee: *how* shard queries run (sequentially on the
calling thread vs. concurrently on a worker pool) must never change what
they answer.  Serial dispatch preserves the seed's semantics; thread
dispatch must be byte-identical to it for all 13 Table III expressions on
every sharded backend, even with N client threads hammering one cluster
through a shared dispatcher.  See ``docs/distributed-execution.md``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import PolyFrame, PostgresConnector
from repro.bench.expressions import EXPRESSIONS, DataFrameAPI, benchmark_params
from repro.bench.systems import build_cluster_systems
from repro.cluster import GreenplumCluster
from repro.cluster.base import scatter_gather
from repro.cluster.dispatch import ThreadPoolDispatcher
from repro.cluster.merge import spec_for_select
from repro.cluster.replica import HedgePolicy, ReplicaSet
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    TransientBackendError,
)
from repro.obs import Tracer
from repro.resilience import FaultInjector
from repro.resilience.deadline import CancellationToken, Deadline, budget_scope
from repro.sqlengine.parser import parse
from repro.sqlengine.result import ResultSet

NUM_NODES = 3
NUM_RECORDS = 150
STRESS_NODES = 4
STRESS_CLIENTS = 4


def canonical(value):
    """Byte-comparable form of an expression result."""
    value = DataFrameAPI().materialize(value)
    if hasattr(value, "to_records"):
        return repr(value.to_records())
    return repr(value)


def run_all_expressions(systems) -> dict[tuple[str, int], str]:
    params = benchmark_params()
    api = DataFrameAPI()
    answers: dict[tuple[str, int], str] = {}
    for name, system in systems.items():
        df, df2 = system.create_frames()
        for expr in EXPRESSIONS:
            try:
                answers[(name, expr.id)] = canonical(expr.run(df, df2, params, api))
            except Exception as exc:  # noqa: BLE001 - errors must match too
                answers[(name, expr.id)] = f"{type(exc).__name__}"
    return answers


# ----------------------------------------------------------------------
# Dispatcher unit behaviour
# ----------------------------------------------------------------------
class TestResolution:
    def test_cluster_accepts_dispatch_kwarg(self):
        cluster = GreenplumCluster(2, dispatch="threads")
        assert isinstance(cluster.dispatcher, ThreadPoolDispatcher)


class TestMapShards:
    def test_results_in_task_order(self):
        dispatcher = ThreadPoolDispatcher(max_workers=4)
        delays = [0.03, 0.0, 0.02, 0.01]

        def make(i):
            def task():
                time.sleep(delays[i])
                return i
            return task

        assert dispatcher.map_shards([make(i) for i in range(4)]) == [0, 1, 2, 3]

    def test_lowest_index_error_wins(self):
        dispatcher = ThreadPoolDispatcher(max_workers=4)

        def ok():
            return 1

        def fail_fast():
            raise ValueError("shard 3")

        def fail_slow():
            time.sleep(0.01)
            raise KeyError("shard 1")

        with pytest.raises(KeyError):
            dispatcher.map_shards([ok, fail_slow, ok, fail_fast])

    def test_map_runs_concurrently(self):
        dispatcher = ThreadPoolDispatcher(max_workers=4)
        barrier = threading.Barrier(4, timeout=5.0)

        def task():
            barrier.wait()  # deadlocks unless all four run at once
            return True

        assert dispatcher.map_shards([task] * 4) == [True] * 4


class TestRace:
    def test_fast_primary_never_hedges(self):
        dispatcher = ThreadPoolDispatcher()
        race = dispatcher.race(lambda: "fast", lambda: "hedge", 0.5)
        assert race.primary == "fast"
        assert not race.hedged and race.primary_first

    def test_slow_primary_hedges_and_loses(self):
        dispatcher = ThreadPoolDispatcher()

        def slow():
            time.sleep(0.2)
            return "slow"

        race = dispatcher.race(slow, lambda: "hedge", 0.01)
        assert race.hedged
        assert race.hedge_value == "hedge"
        assert not race.primary_first
        assert race.primary == "slow"  # primary still completes and reports

    def test_primary_error_propagates_after_join(self):
        dispatcher = ThreadPoolDispatcher()

        def broken():
            time.sleep(0.05)
            raise TransientBackendError("boom")

        with pytest.raises(TransientBackendError):
            dispatcher.race(broken, lambda: "hedge", 0.01)


# ----------------------------------------------------------------------
# Coordinator semantics under each dispatcher
# ----------------------------------------------------------------------
def _shard_result(count: int, elapsed: float = 0.001) -> ResultSet:
    return ResultSet(records=[{"count": count}], elapsed_seconds=elapsed)


COUNT_SPEC = spec_for_select(parse("SELECT COUNT(*) FROM (SELECT * FROM t) x", "sql"))


def unreplicated(num_shards: int) -> ReplicaSet:
    """One copy per shard: the seed's layout, and production's default."""
    return ReplicaSet(num_shards, num_shards, 1)


class TestScatterGatherDispatch:
    def test_thread_dispatch_matches_serial_answers(self):
        def run(shard: int, node: int) -> ResultSet:
            return _shard_result(shard + 1)

        serial = scatter_gather(run, unreplicated(4), COUNT_SPEC, dispatcher="serial")
        threaded = scatter_gather(run, unreplicated(4), COUNT_SPEC, dispatcher="threads")
        assert serial.records == threaded.records == [{"count": 10}]
        assert serial.stats.dispatch_mode == "serial"
        assert serial.stats.parallelism == 1
        assert threaded.stats.dispatch_mode == "threads"
        assert threaded.stats.parallelism == 4
        # R=1: every shard is served by its own node, nothing else moves.
        assert serial.served_by == threaded.served_by == (0, 1, 2, 3)
        assert serial.shard_attempts == threaded.shard_attempts == (1, 1, 1, 1)

    def test_thread_mode_reports_measured_wall_time(self):
        def run(shard: int, node: int) -> ResultSet:
            time.sleep(0.05)
            return _shard_result(1, elapsed=10.0)  # absurd simulated time

        result = scatter_gather(run, unreplicated(4), COUNT_SPEC, dispatcher="threads")
        # Measured, not simulated: four 50ms sleeps overlap on the pool.
        assert result.elapsed_seconds < 1.0

    def test_serial_mode_keeps_simulated_wall_time(self):
        def run(shard: int, node: int) -> ResultSet:
            return _shard_result(1, elapsed=10.0)

        result = scatter_gather(run, unreplicated(4), COUNT_SPEC, dispatcher="serial")
        assert result.elapsed_seconds > 10.0

    @pytest.mark.parametrize(
        "why, raised, outcome, attempts",
        [
            ("error", ValueError, "error", 1),
            ("cancelled", QueryCancelledError, "cancelled", 0),
            ("deadline", QueryTimeoutError, "deadline", 0),
        ],
    )
    def test_non_connector_error_closes_shard_span_honestly(
        self, why, raised, outcome, attempts
    ):
        """A shard that dies of a non-connector error, a cancelled query
        or an expired deadline still says how many attempts it burned
        and why it stopped."""
        tracer = Tracer()
        token = CancellationToken()
        now = [0.0]

        def run(shard: int, node: int) -> ResultSet:
            # Shard 0 answers, then pulls the rug from under shard 1.
            if shard == 1:
                raise ValueError("malformed query")
            if why == "cancelled":
                token.cancel("caller gave up")
            if why == "deadline":
                now[0] = 10.0
            return _shard_result(1)

        with pytest.raises(raised):
            with tracer.span("root"), budget_scope(
                deadline=Deadline(5.0, clock=lambda: now[0]), token=token
            ):
                scatter_gather(
                    run, unreplicated(2), COUNT_SPEC,
                    backend_name="gp", dispatcher="serial",
                )
        (root,) = tracer.spans
        failed = [s for s in root.find("shard") if s.attributes["shard"] == 1]
        assert failed, "failing shard recorded no span"
        assert failed[0].attributes["outcome"] == outcome
        assert failed[0].attributes["attempts"] == attempts


# ----------------------------------------------------------------------
# Byte-identity: serial vs threads across all expressions and backends
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dispatch_answers():
    return {
        mode: run_all_expressions(
            build_cluster_systems(NUM_NODES, NUM_RECORDS, dispatch=mode)
        )
        for mode in ("serial", "threads")
    }


def test_threads_byte_identical_to_serial(dispatch_answers):
    assert dispatch_answers["threads"] == dispatch_answers["serial"]


def test_serial_covers_every_cell(dispatch_answers):
    # 13 expressions x 3 sharded backends; the only non-answer is the
    # sharded-MongoDB join (expression 12), exactly as in the paper.
    serial = dispatch_answers["serial"]
    assert len(serial) == 13 * 3
    unsupported = {k for k, v in serial.items() if v == "UnsupportedOperationError"}
    assert unsupported == {("PolyFrame-MongoDB", 12)}


# ----------------------------------------------------------------------
# Thread-mode hedging is a real race
# ----------------------------------------------------------------------
def test_thread_dispatch_hedge_race_rescues_slow_replica():
    # A private, empty injector: the served-by assertion below assumes
    # node 1 is reachable, which the CI chaos matrix (REPRO_NODE_DOWN=1)
    # would otherwise break process-wide.
    cluster = GreenplumCluster(
        2,
        query_prep_overhead=0.0,
        replication_factor=2,
        fault_injector=FaultInjector(),
        hedge=HedgePolicy(threshold_seconds=0.02),
        dispatch="threads",
    )
    cluster.create_table("t")
    cluster.insert("t", [{"v": i} for i in range(40)])
    # Slow node 0 for real: wall-clock latency, not charged simulation.
    original = cluster.store.engine

    def slow_engine(shard: int, node: int):
        engine = original(shard, node)
        if node == 0:
            run = engine.execute

            def delayed(query_text: str):
                time.sleep(0.2)
                return run(query_text)

            engine = type("Slow", (), {"execute": staticmethod(delayed)})()
        return engine

    cluster.store.engine = slow_engine
    result = cluster.execute("SELECT COUNT(*) FROM (SELECT * FROM t) x")
    assert result.scalar() == 40
    assert result.stats.hedges >= 1
    assert result.stats.hedge_wins >= 1
    # Shard 0's primary lives on the slow node 0; the winning hedge means
    # its replica on node 1 actually served the read.
    assert result.served_by[0] == 1


# ----------------------------------------------------------------------
# Concurrency stress: N client threads on one shared thread dispatcher
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["threads"])
def test_concurrent_clients_stay_isolated(mode):
    dispatcher = ThreadPoolDispatcher()
    systems = build_cluster_systems(
        STRESS_NODES,
        NUM_RECORDS,
        which=("PolyFrame-Greenplum",),
        dispatch=dispatcher,
    )
    cluster = systems["PolyFrame-Greenplum"].engine
    baseline = run_all_expressions(
        build_cluster_systems(
            STRESS_NODES, NUM_RECORDS, which=("PolyFrame-Greenplum",), dispatch="serial"
        )
    )
    expected = {
        expr_id: answer for (_, expr_id), answer in baseline.items()
    }

    params = benchmark_params()
    errors: list[BaseException] = []
    client_answers: list[dict[int, str]] = [{} for _ in range(STRESS_CLIENTS)]
    client_tracers: list[Tracer] = [Tracer() for _ in range(STRESS_CLIENTS)]

    def client(idx: int) -> None:
        try:
            api = DataFrameAPI()
            connector = PostgresConnector(cluster)
            connector.set_tracer(client_tracers[idx])
            df = PolyFrame("Bench", "data", connector)
            df2 = PolyFrame("Bench", "data2", connector)
            for expr in EXPRESSIONS:
                client_answers[idx][expr.id] = canonical(
                    expr.run(df, df2, params, api)
                )
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"client-{i}")
        for i in range(STRESS_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors

    # Every client got the serial answers, byte for byte.
    for answers in client_answers:
        assert answers == expected

    # And no span-tree interleaving: each client's dispatch spans hold
    # exactly its own query's shard spans — indices 0..3 exactly once.
    for tracer in client_tracers:
        assert tracer.spans, "client recorded no spans"
        for root in tracer.spans:
            for span in root.walk():
                if span.name != "dispatch":
                    continue
                shard_ids = sorted(
                    s.attributes["shard"]
                    for s in span.walk()
                    if s.name == "shard"
                )
                if shard_ids:
                    assert shard_ids == list(range(STRESS_NODES))
