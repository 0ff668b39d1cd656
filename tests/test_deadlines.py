"""End-to-end deadline and cooperative-cancellation tests.

Every scenario is deterministic: deadlines take a fake monotonic clock,
retry sleeps advance that same clock (so backoff consumes simulated
budget, not wall time), and fault injectors own seeded RNGs.  The
acceptance bar from ``docs/deadlines.md``: under chaos, every query
either completes within its budget or fails fast with
:class:`~repro.errors.QueryTimeoutError` / :class:`~repro.errors.OverloadError`
— never a hang, never a silently late answer.
"""

from __future__ import annotations

import gc
import threading
import time

import pytest

from repro import PolyFrame, PostgresConnector
from repro.bench.expressions import EXPRESSIONS, DataFrameAPI, benchmark_params
from repro.cluster import GreenplumCluster
from repro.cluster.base import scatter_gather
from repro.cluster.dispatch import ThreadPoolDispatcher
from repro.cluster.merge import MergeSpec
from repro.cluster.replica import HedgePolicy, ReplicaSet
from repro.eager import frame_from_records
from repro.errors import (
    ExecutionError,
    OverloadError,
    QueryCancelledError,
    QueryTimeoutError,
    TransientBackendError,
)
from repro.obs import metrics
from repro.obs.trace import get_tracer
from repro.resilience import FaultInjector, RetryPolicy, no_sleep
from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import (
    CancellationToken,
    Deadline,
    action_scope,
    budget_scope,
    current_deadline,
    current_token,
)
from repro.sqlengine import SQLDatabase
from repro.sqlengine.result import ResultSet
from repro.wisconsin import loaders, wisconsin_records

QUERY = "SELECT COUNT(*) FROM t x"
COUNT_QUERY = "SELECT COUNT(*) FROM Bench.data"

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


def no_sleep_policy(max_attempts: int = 3, **kwargs) -> RetryPolicy:
    kwargs.setdefault("sleep", lambda seconds: None)
    return RetryPolicy(max_attempts, **kwargs)


def single_node_connector(injector=None, **kwargs) -> PostgresConnector:
    db = SQLDatabase()
    db.create_table("t")
    db.insert("t", [{"a": 1}, {"a": 2}])
    return PostgresConnector(db, fault_injector=injector, **kwargs)


# ----------------------------------------------------------------------
# Deadline / CancellationToken units
# ----------------------------------------------------------------------
class TestDeadline:
    def test_budget_accounting(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == 2.0
        assert not deadline.expired()
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired()

    def test_clamp_never_sleeps_past_expiry(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.clamp(0.4) == 0.4
        clock.advance(0.7)
        assert deadline.clamp(0.4) == pytest.approx(0.3)
        clock.advance(0.5)
        assert deadline.clamp(0.4) == 0.0

    def test_check_raises_with_context(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        deadline.check(backend="pg")  # within budget: no raise
        clock.advance(0.5)
        with pytest.raises(QueryTimeoutError, match="pg.*0.500s deadline.*shard 2"):
            deadline.check(backend="pg", where="shard 2")

    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestCancellationToken:
    def test_first_reason_sticks(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel("shard 2 died")
        token.cancel("too late")
        assert token.cancelled
        assert token.reason == "shard 2 died"
        with pytest.raises(QueryCancelledError, match="shard 2 died"):
            token.check(where="merge")

    def test_parent_cancellation_reaches_children(self):
        parent = CancellationToken()
        child = CancellationToken(parent=parent)
        parent.cancel("action aborted")
        assert child.cancelled
        assert child.reason == "action aborted"

    def test_child_cancellation_never_propagates_up(self):
        parent = CancellationToken()
        child = CancellationToken(parent=parent)
        child.cancel("lost hedge race")
        assert not parent.cancelled
        assert parent.reason == ""


class TestBudgetScope:
    def test_install_and_restore(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        token = CancellationToken()
        assert current_deadline() is None and current_token() is None
        with budget_scope(deadline, token):
            assert current_deadline() is deadline
            assert current_token() is token
        assert current_deadline() is None and current_token() is None

    def test_none_fields_inherit_from_outer_frame(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        inner_token = CancellationToken()
        with budget_scope(deadline, CancellationToken()):
            with budget_scope(token=inner_token):
                assert current_deadline() is deadline  # inherited
                assert current_token() is inner_token  # narrowed

    def test_frame_crosses_threads_via_propagation(self):
        from repro.resilience.deadline import current_frame, propagated_frame

        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        seen = {}
        with budget_scope(deadline, CancellationToken()):
            frame = current_frame()

            def worker():
                with propagated_frame(frame):
                    seen["deadline"] = current_deadline()
                    seen["token"] = current_token()

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert seen["deadline"] is deadline
            assert seen["token"] is frame.token


class TestActionScope:
    def test_configured_deadline_creates_root_frame(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEADLINE", raising=False)
        connector = single_node_connector(deadline=4.0)
        connector.deadline_clock = FakeClock()
        with action_scope(connector) as frame:
            assert frame.deadline is not None
            assert frame.deadline.seconds == 4.0
            assert frame.token is not None

    def test_nested_action_shares_the_outer_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEADLINE", raising=False)
        connector = single_node_connector(deadline=4.0)
        connector.deadline_clock = FakeClock()
        with action_scope(connector) as outer:
            with action_scope(connector) as inner:
                assert inner is outer  # one budget for the whole action tree

    def test_env_deadline_applies_without_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE", "7.5")
        connector = single_node_connector()
        with action_scope(connector) as frame:
            assert frame.deadline is not None
            assert frame.deadline.seconds == 7.5

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEADLINE", raising=False)
        connector = single_node_connector()
        with action_scope(connector) as frame:
            assert frame.deadline is None  # seed behaviour
            assert frame.token is not None



# ----------------------------------------------------------------------
# Retry backoff clamped to the remaining budget
# ----------------------------------------------------------------------
class TestBackoffClamp:
    def test_sleeps_are_clamped_and_final_sleep_skipped(self):
        clock = FakeClock()
        slept = []
        policy = RetryPolicy(
            5, base_delay=3.0, max_delay=10.0, jitter=0.0, sleep=slept.append
        )
        deadline = Deadline(4.0, clock=clock)
        policy.wait(1, deadline=deadline)
        assert slept == [3.0]  # full backoff fits
        clock.advance(3.0)
        policy.wait(2, deadline=deadline)
        assert slept == [3.0, 1.0]  # 6s backoff clamped to the last 1s
        clock.advance(1.0)
        with pytest.raises(QueryTimeoutError):
            policy.wait(3, deadline=deadline)  # no budget: no sleep at all
        assert slept == [3.0, 1.0]

    def test_no_deadline_means_seed_backoff(self):
        slept = []
        policy = RetryPolicy(
            3, base_delay=3.0, max_delay=10.0, jitter=0.0, sleep=slept.append
        )
        policy.wait(1)
        assert slept == [3.0]


# ----------------------------------------------------------------------
# Connector sends under a deadline
# ----------------------------------------------------------------------
class TestConnectorDeadline:
    def test_retry_loop_stops_eagerly_when_budget_runs_out(self):
        # Deterministic timeline on a fake clock: the backend is down and
        # backoff sleeps advance the deadline clock.  attempt 1 fails at
        # t=0 and sleeps 3s; attempt 2 fails at t=3 and its 6s backoff is
        # clamped to the remaining 2s; at t=5 the budget is gone, so
        # attempt 3 is never launched — the loop raises eagerly instead.
        clock = FakeClock()
        injector = FaultInjector()
        injector.down("PostgresConnector")
        policy = RetryPolicy(
            5, base_delay=3.0, max_delay=10.0, jitter=0.0, sleep=clock.advance
        )
        connector = single_node_connector(
            injector, retry_policy=policy, deadline=5.0
        )
        connector.deadline_clock = clock
        before = metrics.counter_value(
            "deadline_exceeded_total", backend="PostgresConnector"
        )
        with pytest.raises(QueryTimeoutError, match="deadline"):
            connector.send(QUERY, "t")
        assert clock.now == 5.0  # the clamp: never slept past expiry
        record = connector.send_log[-1]
        assert record.attempts == 2  # the third attempt never launched
        assert record.outcome == "error"
        after = metrics.counter_value(
            "deadline_exceeded_total", backend="PostgresConnector"
        )
        assert after == before + 1

    def test_expired_ambient_deadline_fails_before_any_attempt(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        clock.advance(3.0)
        connector = single_node_connector()
        with budget_scope(deadline):
            with pytest.raises(QueryTimeoutError):
                connector.send(QUERY, "t")
        record = connector.send_log[-1]
        assert record.attempts == 0
        assert record.outcome == "error"

    def test_cancelled_token_fails_before_any_attempt(self):
        token = CancellationToken()
        token.cancel("user abort")
        connector = single_node_connector()
        with budget_scope(token=token):
            with pytest.raises(QueryCancelledError, match="user abort"):
                connector.send(QUERY, "t")
        record = connector.send_log[-1]
        assert record.attempts == 0
        assert record.outcome == "cancelled"
        assert record.cancelled == 1

    def test_send_within_budget_reports_the_remainder(self):
        clock = FakeClock()
        connector = single_node_connector(deadline=10.0)
        connector.deadline_clock = clock
        result = connector.send(QUERY, "t")
        assert result.scalar() == 2
        record = connector.send_log[-1]
        assert record.outcome == "ok"
        assert record.deadline_budget_ms == pytest.approx(10_000.0)


# ----------------------------------------------------------------------
# A singleflight follower waits no longer than its own budget
# ----------------------------------------------------------------------
class TestSingleflightFollowerBudget:
    """`REPRO_CACHE=1` coalesces identical sends; a follower used to block
    on its leader with no timeout, however short its own deadline."""

    @staticmethod
    def gated_connector():
        """A caching connector whose backend blocks until released."""
        connector = single_node_connector(FaultInjector(), cache=True, admission=False)
        entered, release = threading.Event(), threading.Event()
        original = connector._db.execute

        def gated(*args, **kwargs):
            entered.set()
            release.wait(10.0)
            return original(*args, **kwargs)

        connector._db.execute = gated
        return connector, entered, release

    def follow(self, connector, entered, give_up, **frame):
        """Lead one send, follow with another under *frame*; return its error."""
        leader = threading.Thread(target=connector.send, args=(QUERY, "t"))
        leader.start()
        assert entered.wait(5.0)
        errors = []

        def follower():
            with budget_scope(**frame):
                try:
                    connector.send(QUERY, "t")
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

        thread = threading.Thread(target=follower)
        thread.start()
        time.sleep(0.05)  # the follower reaches the wait
        give_up()
        thread.join(2.0)
        assert not thread.is_alive(), "the follower outwaited its own budget"
        assert leader.is_alive()  # undisturbed, still executing
        return leader, errors

    def test_follower_deadline_expires_while_the_leader_runs(self):
        clock = FakeClock()
        connector, entered, release = self.gated_connector()
        before = metrics.counter_value(
            "deadline_exceeded_total", backend="PostgresConnector"
        )
        leader, errors = self.follow(
            connector,
            entered,
            lambda: clock.advance(1.0),
            deadline=Deadline(0.5, clock=clock),
        )
        assert isinstance(errors[0], QueryTimeoutError)
        assert "singleflight wait" in str(errors[0])
        (record,) = connector.send_log  # the leader has not logged yet
        assert (record.outcome, record.attempts) == ("error", 0)
        assert (record.cache_misses, record.singleflight_waits) == (1, 1)
        after = metrics.counter_value(
            "deadline_exceeded_total", backend="PostgresConnector"
        )
        assert after == before + 1
        release.set()
        leader.join(5.0)
        assert [r.outcome for r in connector.send_log] == ["error", "ok"]
        assert connector.send_log[-1].attempts == 1

    def test_follower_cancelled_while_the_leader_runs(self):
        token = CancellationToken()
        connector, entered, release = self.gated_connector()
        leader, errors = self.follow(
            connector, entered, lambda: token.cancel("user abort"), token=token
        )
        assert isinstance(errors[0], QueryCancelledError)
        (record,) = connector.send_log
        assert (record.outcome, record.attempts) == ("cancelled", 0)
        assert (record.singleflight_waits, record.cancelled) == (1, 1)
        release.set()
        leader.join(5.0)
        assert connector.send_log[-1].outcome == "ok"


# ----------------------------------------------------------------------
# Streaming sends honor the budget at batch boundaries
# ----------------------------------------------------------------------
class TestStreamingDeadline:
    STREAM_QUERY = "SELECT * FROM t x"

    @needs_real_streaming
    def test_stream_raises_at_the_next_batch_boundary(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEADLINE", raising=False)
        clock = FakeClock()
        # An explicit empty injector keeps the CI chaos env's seeded
        # faults (and their retries) out of the exact timeline below.
        connector = single_node_connector(FaultInjector(), deadline=5.0)
        connector.deadline_clock = clock
        result = connector.send(self.STREAM_QUERY, "t", stream=True)
        assert getattr(result, "streaming", False)
        records = result.iter_records()
        assert next(records) is not None  # within budget: flows
        clock.advance(6.0)
        with pytest.raises(QueryTimeoutError, match="stream drain"):
            next(records)

    @needs_real_streaming
    def test_per_attempt_timeout_becomes_the_drain_deadline(self, monkeypatch):
        # The seed silently ignored ``timeout=`` on streaming sends; now
        # the attempt's budget covers the whole drain.
        monkeypatch.delenv("REPRO_DEADLINE", raising=False)
        clock = FakeClock()
        connector = single_node_connector(FaultInjector(), timeout=0.5)
        connector.deadline_clock = clock
        result = connector.send(self.STREAM_QUERY, "t", stream=True)
        assert getattr(result, "streaming", False)
        records = result.iter_records()
        next(records)
        clock.advance(1.0)
        with pytest.raises(QueryTimeoutError):
            next(records)

    @needs_real_streaming
    def test_stream_with_retry_policy_retries_the_open_and_streams(self):
        # A retry policy used to turn a streaming send into a materialized
        # one (with a once-per-connector warning); now the *open* is
        # retried and the drain streams.
        materialized = single_node_connector(FaultInjector()).send(
            self.STREAM_QUERY, "t"
        )
        injector = FaultInjector()
        injector.fail_first(2)
        connector = single_node_connector(injector, retry_policy=no_sleep_policy())
        result = connector.send(self.STREAM_QUERY, "t", stream=True)
        assert result.streaming  # opened on the third try, nothing drained yet
        assert connector.send_log[-1].attempts == 3
        assert list(result.iter_records()) == materialized.records
        assert not result.streaming
        assert len(connector.send_log) == 1

    @needs_real_streaming
    def test_cancelled_token_stops_the_stream(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEADLINE", raising=False)
        token = CancellationToken()
        connector = single_node_connector(FaultInjector())
        with budget_scope(token=token):
            result = connector.send(self.STREAM_QUERY, "t", stream=True)
        assert getattr(result, "streaming", False)
        records = result.iter_records()
        next(records)
        token.cancel("consumer gave up")
        with pytest.raises(QueryCancelledError, match="consumer gave up"):
            next(records)


# ----------------------------------------------------------------------
# Hedge suppression: no budget left, no speculative leg
# ----------------------------------------------------------------------
class TestHedgeSuppression:
    NUM_RECORDS = 120

    def make_cluster(self, injector) -> GreenplumCluster:
        cluster = GreenplumCluster(
            4,
            retry_policy=no_sleep_policy(),
            fault_injector=injector,
            replication_factor=2,
            hedge=HedgePolicy(threshold_seconds=0.01),
        )
        cluster.create_table("Bench.data", primary_key=loaders.PRIMARY_KEY)
        cluster.insert(
            "Bench.data", wisconsin_records(self.NUM_RECORDS), shard_key="unique1"
        )
        return cluster

    def slow_injector(self) -> FaultInjector:
        injector = FaultInjector(sleep=no_sleep)
        injector.slow_node(2, 0.5)
        return injector

    def test_control_run_hedges_the_slow_node(self):
        cluster = self.make_cluster(self.slow_injector())
        result = cluster.execute(COUNT_QUERY)
        assert result.scalar() == self.NUM_RECORDS
        assert result.stats.hedges >= 1

    def test_exhausted_budget_suppresses_the_hedge(self):
        cluster = self.make_cluster(self.slow_injector())
        clock = FakeClock()
        # Remaining budget (5ms) is below the 10ms hedge threshold: a
        # hedge could only *start* after the budget ran out, so it never
        # launches — the slow primary serves, and the answer is intact.
        with budget_scope(Deadline(0.005, clock=clock)):
            result = cluster.execute(COUNT_QUERY)
        assert result.scalar() == self.NUM_RECORDS
        assert result.stats.hedges == 0
        assert not result.partial


# ----------------------------------------------------------------------
# Dispatcher-level cooperative cancellation
# ----------------------------------------------------------------------
class TestDispatcherCancellation:
    def drain_threads(self, prefix: str) -> list[threading.Thread]:
        return [
            t
            for t in threading.enumerate()
            if t.name.startswith(prefix) and t.is_alive()
        ]

    def test_losing_race_leg_is_cancelled(self):
        dispatcher = ThreadPoolDispatcher(max_workers=2)
        batches: list[int] = []

        def primary():
            token = current_token()
            assert token is not None  # race installs a per-leg child token
            for i in range(10_000):
                token.check(where="primary batch")
                batches.append(i)
                time.sleep(0.002)
            return "primary"

        try:
            race = dispatcher.race(primary, lambda: "hedge", 0.01)
            assert race.hedged
            assert race.hedge_value == "hedge"
            assert race.primary is None  # cancelled, not an error
            assert not race.primary_first
            done = len(batches)
            assert done < 10_000  # stopped mid-loop, not drained
            time.sleep(0.05)
            assert len(batches) == done  # the counter stopped advancing
            assert not self.drain_threads("repro-hedge-primary")
        finally:
            dispatcher.close()

    def test_fatal_shard_error_cancels_the_siblings(self):
        # Pools of dispatchers that earlier tests dropped live until the GC
        # frees their clusters; free them now so only this one's workers
        # can show up in the leak check below.
        gc.collect()
        dispatcher = ThreadPoolDispatcher(max_workers=4)
        batches = {1: 0, 2: 0, 3: 0}
        limit = 5_000

        def run_on_replica(shard: int, node: int) -> ResultSet:
            if shard == 0:
                time.sleep(0.05)
                raise ExecutionError("shard 0 hit a poison record")
            token = current_token()
            for _ in range(limit):
                if token is not None and token.cancelled:
                    token.check(where=f"shard {shard} batch")
                batches[shard] += 1
                time.sleep(0.002)
            return ResultSet()

        try:
            # The real error wins over the siblings' cancellations.
            with pytest.raises(ExecutionError, match="poison"):
                scatter_gather(
                    run_on_replica, ReplicaSet(4, 4, 1), MergeSpec(kind="concat"),
                    dispatcher=dispatcher,
                )
            progress = dict(batches)
            assert all(count < limit for count in progress.values())
            time.sleep(0.05)
            assert batches == progress  # sibling work genuinely stopped
        finally:
            dispatcher.close()
        assert not self.drain_threads("repro-shard")  # no worker leaks


# ----------------------------------------------------------------------
# Chaos acceptance: budget kept or failed fast, never a hang
# ----------------------------------------------------------------------
class TestChaosAcceptance:
    NUM_RECORDS = 120
    BUDGET = 1.0
    # One in-flight attempt may straddle the expiry (the check fires at
    # the next boundary): the worst overshoot is one slow-node attempt.
    EPSILON = 0.9
    QUERIES = 12

    def build_cluster(self, injector, policy=None) -> GreenplumCluster:
        # cache=False: under the CI cache matrix a repeated query would be
        # served instantly from cache and the deadline would never bite.
        cluster = GreenplumCluster(
            4,
            retry_policy=policy if policy is not None else no_sleep_policy(),
            fault_injector=injector,
            replication_factor=2,
            cache=False,
        )
        cluster.create_table("Bench.data", primary_key=loaders.PRIMARY_KEY)
        cluster.insert(
            "Bench.data", wisconsin_records(self.NUM_RECORDS), shard_key="unique1"
        )
        return cluster

    def test_every_query_meets_budget_or_fails_fast(self):
        healthy = self.build_cluster(FaultInjector(sleep=no_sleep))
        expected = healthy.execute(COUNT_QUERY).scalar()

        clock = FakeClock()
        injector = FaultInjector(seed=7, sleep=clock.advance)
        injector.slow_node(2, 0.6)
        injector.transient_rate(0.15)
        policy = RetryPolicy(3, base_delay=0.3, jitter=0.0, sleep=clock.advance)
        cluster = self.build_cluster(injector, policy)

        successes = failures = 0
        for _ in range(self.QUERIES):
            started = clock.now
            try:
                with budget_scope(Deadline(self.BUDGET, clock=clock)):
                    result = cluster.execute(COUNT_QUERY)
            except (QueryTimeoutError, OverloadError):
                failures += 1
            else:
                # Parity: a query that completes is *correct*, faults or not.
                assert result.scalar() == expected
                assert not result.partial
                successes += 1
            # The budget held (within one straddling attempt), success or not.
            assert clock.now - started <= self.BUDGET + self.EPSILON
        assert successes + failures == self.QUERIES
        assert successes > 0  # the chaos is survivable...
        assert failures > 0  # ...and the deadline genuinely bites


# ----------------------------------------------------------------------
# Parity: knobs ON change nothing about the answers
# ----------------------------------------------------------------------
class TestKnobsOnParity:
    """All 13 Table III expressions, all four backends, deadline+admission on.

    The generous budget (30s wall) and an uncontended controller must be
    invisible: answers byte-identical to the eager baseline, exactly as
    the knobs-off integration suite asserts.
    """

    SCALAR_EXPRESSIONS = (1, 3, 6, 7, 11, 12, 13)
    FRAME_EXPRESSIONS = (2, 4, 5, 8, 9, 10)

    def run(self, expr_id, df, df2):
        expr = next(e for e in EXPRESSIONS if e.id == expr_id)
        return expr.run(df, df2, benchmark_params(), DataFrameAPI())

    def test_expressions_agree_with_deadline_and_admission_on(
        self, all_connectors, wisconsin
    ):
        eager = (frame_from_records(wisconsin), frame_from_records(wisconsin))
        saved = {
            name: (connector.deadline, connector.admission)
            for name, connector in all_connectors.items()
        }
        try:
            for connector in all_connectors.values():
                connector.deadline = 30.0
                connector.admission = AdmissionController(backend=connector.name)
            for backend, connector in all_connectors.items():
                df = PolyFrame("Bench", "data", connector)
                df2 = PolyFrame("Bench", "data2", connector)
                for expr_id in self.SCALAR_EXPRESSIONS:
                    expected = self.run(expr_id, *eager)
                    got = self.run(expr_id, df, df2)
                    assert got == expected, f"expression {expr_id} on {backend}"
                for expr_id in self.FRAME_EXPRESSIONS:
                    expected = self.run(expr_id, *eager)
                    got = self.run(expr_id, df, df2)
                    assert len(got) == len(expected), (
                        f"expression {expr_id} row count on {backend}"
                    )
                # Nothing queued, nothing shed: admission was invisible.
                assert connector.admission.stats()["shed"] == 0
                assert connector.admission.inflight == 0
        finally:
            for name, connector in all_connectors.items():
                connector.deadline, connector.admission = saved[name]
