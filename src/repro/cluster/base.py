"""The scatter-gather coordinator shared by every sharded engine.

:func:`scatter_gather` runs a query on every shard and merges the
partial answers.  It is also the cluster-side resilience boundary: each
shard has copies on ``replication_factor`` nodes
(:class:`~repro.cluster.replica.ReplicaSet`; R=1 is the unreplicated
case), every attempt can have faults injected, failed attempts are
retried under a :class:`~repro.resilience.RetryPolicy`, an exhausted
replica *fails over* to the next healthy one, slow attempts are *hedged*
against another replica, and an opt-in quorum mode cross-checks replica
row checksums.  A shard only counts as down once every replica is
exhausted: that raises a precise :class:`~repro.errors.ShardFailureError`
or — with ``allow_partial=True`` — drops the shard and flags the merged
result ``partial=True``.  See ``docs/resilience.md``.

How the per-shard work actually runs is delegated to a pluggable
:class:`~repro.cluster.dispatch.Dispatcher`: the default
``SerialDispatcher`` runs shards sequentially on the calling thread and
keeps the simulated ``max(per-shard elapsed)`` wall time, while
``ThreadPoolDispatcher`` runs them concurrently, reports *measured*
dispatch wall time, and turns a fixed-threshold hedge into a genuine
race.  See ``docs/distributed-execution.md``.
"""

from __future__ import annotations

import functools
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.cache import DatasetVersions, ResultCache
from repro.cluster.dispatch import DISPATCHERS, SERIAL, Dispatcher
from repro.cluster.merge import MergeSpec, merge_record_stream, merge_records
from repro.cluster.partial import plan_select
from repro.cluster.replica import (
    DOWN,
    HedgePolicy,
    NodeHealthBoard,
    ReplicaSet,
    ReplicaStore,
    records_checksum,
)
from repro.errors import (
    CircuitOpenError,
    ConnectorError,
    QueryCancelledError,
    QueryTimeoutError,
    ReplicaDivergenceError,
    ReproError,
    ShardFailureError,
)
from repro.obs import ambient_span, metrics
from repro.obs.profile import OpProfile, analyze_active
from repro.config import Config
from repro.resilience import CircuitBreaker, FaultInjector, RetryPolicy
from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import (
    CancellationToken,
    Deadline,
    budget_scope,
    current_deadline,
    current_token,
)
from repro.sqlengine.result import QueryStats, ResultSet, StreamingResultSet

#: Simulated per-query coordinator cost (shipping plans, gathering results).
DEFAULT_COORDINATOR_OVERHEAD = 0.0002


@contextmanager
def admission_gate(admission: AdmissionController | None) -> Iterator[float]:
    """Hold one cluster admission slot for the duration of the block.

    Yields the seconds the query waited in the controller's queue.

    The coordinator-side counterpart of the connector's per-send gate:
    a cluster constructed with ``admission=`` sheds load *before* the
    scatter fans a query out to every shard.  Acquisition observes the
    ambient deadline (a query that would queue past its budget is shed
    immediately with a retryable :class:`~repro.errors.OverloadError`),
    and the measured gather latency feeds the controller's AIMD limit on
    release.  A ``None`` controller — the seed default — is a no-op.
    """
    if admission is None:
        yield 0.0
        return
    ticket = admission.acquire(deadline=current_deadline())
    started = time.perf_counter()
    try:
        yield ticket.queue_wait_seconds
    except BaseException:
        ticket.release(time.perf_counter() - started, ok=False)
        raise
    ticket.release(time.perf_counter() - started)


def _shard_cache_for(
    result_cache: ResultCache | None,
    cache_key: Any,
    *,
    stream: bool,
    quorum_reads: bool = False,
) -> ResultCache | None:
    """The effective per-shard result cache for one gather, if any.

    Streaming gathers bypass it (shard results are lazy streams, and a
    snapshot would defeat the point); analyze mode does too (a cached
    shard has no operator profile to roll up); quorum reads must compare
    *fresh* replica checksums, so serving one side from cache would
    silently skip the divergence check.
    """
    if (
        result_cache is None
        or cache_key is None
        or stream
        or quorum_reads
        or analyze_active()
    ):
        return None
    return result_cache


def _cached_shard_result(entry: Any) -> ResultSet:
    """A shard answer rebuilt from a cache entry (attempt-free)."""
    stats = QueryStats(result_cache_hits=1)
    return ResultSet(
        records=list(entry.records),
        stats=stats,
        plan_text=entry.plan_text,
        elapsed_seconds=0.0,
    )


def _stream_supported(
    stream: bool, spec: MergeSpec, shard_results: Sequence[ResultSet]
) -> bool:
    """Whether this gather can return a lazily merged record stream.

    Only the record-stream merge kinds qualify — the blocking kinds
    (``scalar_agg``/``group_agg``) need every shard's partials before any
    output exists.  Analyze/tracing mode (shard op profiles present)
    forces materialization, the documented fallback, because the
    coordinator profile needs the merged row count.
    """
    return (
        stream
        and spec.kind in ("concat", "ordered_limit")
        and all(result.op_profile is None for result in shard_results)
    )


def _merge_stream_with_stats(
    spec: MergeSpec,
    sources: Sequence[Any],
    stats: QueryStats,
    shard_results: Sequence[ResultSet],
    cancel_token: CancellationToken | None = None,
):
    """Lazily merge shard streams; fold shard stats in once drained.

    Shard-side stats (rows examined, memory peaks, spill counters)
    accumulate while their pipelines drain, so merging them any earlier
    would capture zeros from still-streaming shards.  Before folding,
    every shard source is explicitly closed: a LIMIT-satisfied merge
    abandons shard streams mid-flight, and closing them runs the
    pipelines' cleanup (budget release, stats stamping) deterministically
    rather than at garbage collection.

    An abandoned merge (consumer ``close()``, LIMIT satisfied, or an
    error in another shard) also cancels *cancel_token*, so in-flight
    producer threads stop at their next record boundary instead of
    draining shards nobody will read; the abandoned shard streams count
    into ``stats.cancelled``.
    """
    completed = False
    try:
        yield from merge_record_stream(spec, sources)
        completed = True
    finally:
        if not completed and cancel_token is not None:
            cancel_token.cancel("result stream abandoned before draining")
            stats.cancelled += len(sources)
        for source in sources:
            close = getattr(source, "close", None)
            if close is not None:
                close()
        for result in shard_results:
            stats.merge(result.stats)


@dataclass(slots=True)
class _Gather:
    """What every shard task of one gather shares; read-only once built."""

    run_on_replica: Callable[[int, int], ResultSet]
    replica_set: ReplicaSet
    health: NodeHealthBoard
    hedge: HedgePolicy
    quorum_reads: bool
    retry_policy: RetryPolicy | None
    fault_injector: FaultInjector | None
    backend_name: str
    allow_partial: bool
    dispatcher: Dispatcher
    cache: ResultCache | None
    cache_key: Any
    deadline: Deadline | None
    #: Every shard of the gather shares this child token: the first fatal
    #: shard error (or an abandoned result stream) cancels it, and sibling
    #: in-flight replica work stops at its next checkpoint.
    token: CancellationToken

    @property
    def label(self) -> str:
        return self.backend_name or "cluster"


class _Leg:
    """One replica's try at one shard, through its retry budget.

    Only the thread running the leg writes to it, so a leg that dies
    mid-retry still tells the shard how many attempts it burned.
    """

    __slots__ = ("node", "result", "error", "attempts", "effective")

    def __init__(self, node: int) -> None:
        self.node = node
        self.result: ResultSet | None = None
        self.error: Exception | None = None
        self.attempts = 0
        self.effective = 0.0


class _ShardRun:
    """Everything one shard's failover/hedge/quorum journey produced."""

    __slots__ = (
        "shard",
        "legs",
        "result",
        "served",
        "effective",
        "failovers",
        "hedges",
        "hedge_wins",
        "quorum_checked",
        "cancelled",
        "failed_node",
        "last_error",
    )

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.legs: list[_Leg] = []
        self.result: ResultSet | None = None
        self.served = -1
        self.effective = 0.0
        self.failovers = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.quorum_checked = 0
        self.cancelled = 0
        self.failed_node: int | None = None
        self.last_error: Exception | None = None

    @property
    def attempts(self) -> int:
        return sum(leg.attempts for leg in self.legs)

    def new_leg(self, node: int) -> _Leg:
        leg = _Leg(node)
        self.legs.append(leg)
        return leg

    def serve(self, result: ResultSet, node: int, effective: float) -> None:
        self.result = result
        self.served = node
        self.effective = effective

    def fail(self, node: int, error: Exception | None) -> None:
        """Note that *node* could not answer; the walker fails over from it."""
        self.failed_node = node
        self.last_error = error


def _run_leg(
    g: _Gather, shard: int, leg: _Leg, retry_policy: RetryPolicy | None
) -> _Leg:
    """Try *shard* on the leg's node, retrying under *retry_policy*.

    The leg's *effective* time is the engine's reported elapsed plus any
    injector-charged latency, so deterministic chaos (no-op sleepers)
    still moves the health tracker and the hedging threshold.
    *fault_injector* hooks fire once per attempt under the key
    ``"<backend_name>#shard<i>@node<j>"``.

    Observes the ambient budget frame: a cancelled gather stops before
    the next attempt with :class:`~repro.errors.QueryCancelledError`, an
    expired deadline with :class:`~repro.errors.QueryTimeoutError`, and
    backoff sleeps are clamped to the remaining budget.
    """
    node = leg.node
    key = f"{g.backend_name}#shard{shard}@node{node}"
    # The token is read from the ambient frame, not the gather: a hedge
    # race runs its primary leg under a narrower child token.
    token = current_token()
    deadline = g.deadline
    while True:
        if token is not None and token.cancelled:
            token.check(where=f"shard {shard} replica node{node}")
        if deadline is not None and deadline.expired():
            deadline.check(where=f"shard {shard} replica node{node}")
        leg.attempts += 1
        injected = 0.0
        try:
            if g.fault_injector is not None:
                injected = g.fault_injector.before_request(key) or 0.0
            result = g.run_on_replica(shard, node)
        except Exception as exc:
            if retry_policy is not None and retry_policy.should_retry(exc, leg.attempts):
                g.health.record_failure(node)
                retry_policy.wait(leg.attempts, deadline=deadline)
                continue
            if not isinstance(exc, ConnectorError):
                # Engine/query errors are not node outages; surface as-is.
                raise
            g.health.record_failure(node)
            leg.error = exc
            return leg
        leg.result = result
        leg.effective = result.elapsed_seconds + injected
        g.health.record_success(node, leg.effective)
        return leg


def _run_hedge(g: _Gather, run: _ShardRun, node: int) -> _Leg:
    """Hedge the shard on *node*: a race, not a retry, so one attempt only."""
    return _run_leg(g, run.shard, run.new_leg(node), None)


def _candidates(
    g: _Gather, run: _ShardRun, nodes: Sequence[int], span: Any
) -> Iterator[tuple[int, int]]:
    """Yield ``(position, node)`` for each replica worth trying, in order.

    The one candidate walker behind quorum and failover reads.  A caller
    reports a replica that could not answer with :meth:`_ShardRun.fail`;
    a replica whose circuit breaker is open is failed here without being
    tried.  Stepping from a failed replica to the next one is a
    **failover**: counted, and recorded as a ``failover`` span child
    naming both nodes.
    """
    for position, node in enumerate(nodes):
        if run.failed_node is not None:
            run.failovers += 1
            metrics.count("failovers_total", g.backend_name)
            span.add_child(
                "failover", 0.0, shard=run.shard,
                from_node=run.failed_node, to_node=node,
            )
            run.failed_node = None
        if not g.health.allow(node):
            run.fail(node, CircuitOpenError(f"circuit open for node{node} of {g.label}"))
            continue
        yield position, node


def _pick_hedge_node(
    g: _Gather, candidates: Sequence[int], position: int, threshold: float | None
) -> int | None:
    """The replica to hedge ``candidates[position]`` against, if any.

    ``None`` when hedging should not trigger (*threshold* is ``None``),
    when no later candidate is healthy, or when the deadline lands first:
    a hedge only fires *threshold* seconds into the primary, so past the
    deadline the second request is pure waste.
    """
    if threshold is None:
        return None
    if g.deadline is not None and g.deadline.remaining() <= max(threshold, 0.0):
        return None
    for node in candidates[position + 1:]:
        if g.health.allow(node) and g.health.node(node).state != DOWN:
            return node
    return None


def _read_hedged(
    g: _Gather, run: _ShardRun, candidates: Sequence[int], position: int, span: Any
) -> bool:
    """Read the shard from ``candidates[position]``, hedged; True once served.

    The one hedge sequence, whatever the dispatcher: pick the hedge
    replica, :meth:`~repro.cluster.dispatch.Dispatcher.race` it against
    the primary when the threshold is a fixed wall-clock SLO, and when no
    race fired judge the hedge post-hoc from effective times.  The hedge
    launches *threshold* seconds into the primary and wins only if it
    still finishes first — or rescues a failed or cancelled primary.
    """
    shard, node = run.shard, candidates[position]
    primary = run.new_leg(node)
    hedged: _Leg | None = None
    primary_first = True
    # Only a fixed threshold can race the still-running primary: adaptive
    # (EWMA-based) thresholds live on the simulated clock, post-hoc only.
    threshold = (
        g.hedge.threshold_for(g.health.node(node))
        if g.hedge.threshold_seconds is not None
        else None
    )
    hedge_node = _pick_hedge_node(g, candidates, position, threshold)
    if hedge_node is None:
        _run_leg(g, shard, primary, g.retry_policy)
    else:
        race = g.dispatcher.race(
            functools.partial(_run_leg, g, shard, primary, g.retry_policy),
            functools.partial(_run_hedge, g, run, hedge_node),
            threshold,
        )
        primary_first = race.primary_first
        if race.hedged:
            hedged = race.hedge_value
        if race.primary is None:
            # The primary lost the wall-clock race and was cooperatively
            # cancelled; its abandoned work counts as `cancelled`, not as
            # attempts.
            run.cancelled += 1
            primary.attempts = 0
    if hedged is None and primary.result is not None:
        # No race fired: the threshold is adaptive (read now, after the
        # primary fed the node's estimate), or the primary was only
        # *simulatedly* slow (injector-charged latency under a no-op sleep
        # hook) so the wall clock never reached it.  Hedging from
        # effective times lets deterministic chaos drive the same hedges
        # in every dispatch mode.
        threshold = g.hedge.threshold_for(g.health.node(node))
        if threshold is not None and primary.effective > threshold:
            hedge_node = _pick_hedge_node(g, candidates, position, threshold)
            if hedge_node is not None:
                hedged = _run_hedge(g, run, hedge_node)
                primary_first = threshold + hedged.effective >= primary.effective
    if hedged is not None:
        run.hedges += 1
        metrics.count("hedges_total", g.backend_name)
        won = hedged.result is not None and not (
            primary.result is not None and primary_first
        )
        if won:
            run.hedge_wins += 1
            metrics.count("hedge_wins_total", g.backend_name)
            run.serve(hedged.result, hedge_node, threshold + hedged.effective)
        span.add_child(
            "hedge", hedged.effective * 1000.0, shard=shard, node=hedge_node, win=won
        )
    if run.result is None:
        if primary.result is None:
            run.fail(node, primary.error or (hedged.error if hedged else None))
            return False
        run.serve(primary.result, node, primary.effective)
    return True


def _read_quorum(
    g: _Gather, run: _ShardRun, candidates: Sequence[int], span: Any
) -> None:
    """Serve the shard once a majority of its replicas answer and agree."""
    needed = g.replica_set.replication_factor // 2 + 1
    responses: list[_Leg] = []
    for _, node in _candidates(g, run, candidates, span):
        leg = _run_leg(g, run.shard, run.new_leg(node), g.retry_policy)
        if leg.result is None:
            run.fail(node, leg.error)
            continue
        responses.append(leg)
        if len(responses) >= needed:
            break
    if len(responses) < needed:
        return
    checksums = {records_checksum(leg.result.records) for leg in responses}
    if len(checksums) > 1:
        metrics.count("replica_divergence_total", g.backend_name)
        nodes = tuple(leg.node for leg in responses)
        raise ReplicaDivergenceError(
            f"quorum read of shard {run.shard} on {g.label} diverged across "
            f"nodes {nodes}: {len(checksums)} distinct checksums",
            shard=run.shard,
            nodes=nodes,
        )
    run.quorum_checked += 1
    # A quorum read completes when its slowest member answers.
    run.serve(
        responses[0].result, responses[0].node, max(leg.effective for leg in responses)
    )
    span.set(quorum=f"{len(responses)}/{needed}")


def _finish_shard(g: _Gather, run: _ShardRun, num_candidates: int, span: Any) -> None:
    """Stamp the shard span, cache the answer, or declare the shard down."""
    attempts = run.attempts
    result = run.result
    if result is None:
        if g.allow_partial:
            metrics.counter("shard_failures_total").inc()
            span.set(attempts=attempts, outcome="failed")
            return
        where = (
            "failed"
            if num_candidates == 1
            else f"failed on all {num_candidates} replicas"
        )
        raise ShardFailureError(
            f"shard {run.shard} of {g.label} {where} after {attempts} "
            f"attempt(s): {run.last_error}",
            shard=run.shard,
            attempts=attempts,
        ) from run.last_error
    if span.recording:
        # Row counts force a streaming shard result to materialize, so
        # only touch them under tracing.
        span.set(attempts=attempts, rows=len(result.records), node=run.served)
    else:
        span.set(attempts=attempts, node=run.served)
    if g.cache is not None:
        g.cache.store(
            (g.cache_key, run.shard),
            result.records,
            elapsed_seconds=result.elapsed_seconds,
            plan_text=result.plan_text,
            partial=result.partial,
            served_node=run.served,
        )


def _abort_outcome(exc: BaseException) -> str:
    """The shard-span ``outcome`` for a shard that raised instead of answering."""
    if isinstance(exc, QueryCancelledError):
        return "cancelled"
    if isinstance(exc, QueryTimeoutError):
        return "deadline"
    if isinstance(exc, ShardFailureError):
        return "failed"
    return "error"


def _execute_shard(g: _Gather, shard: int) -> _ShardRun:
    """One shard's whole journey: cache, then replicas, healthiest first.

    A shard that raises still closes its span honestly (attempts burned,
    and why it stopped), and — unless it merely observed a cancellation —
    cancels the gather so sibling shards stop at their next checkpoint.
    """
    run = _ShardRun(shard)
    with ambient_span("shard", shard=shard, backend=g.backend_name) as span:
        try:
            if g.cache is not None:
                entry = g.cache.lookup((g.cache_key, shard))
                if entry is not None:
                    span.set(attempts=0, node=entry.served_node, cache_hits=1)
                    run.serve(_cached_shard_result(entry), entry.served_node, 0.0)
                    return run
            candidates = g.health.order(g.replica_set.replicas_for(shard))
            if g.quorum_reads and len(candidates) > 1:
                _read_quorum(g, run, candidates, span)
            else:
                for position, _ in _candidates(g, run, candidates, span):
                    if _read_hedged(g, run, candidates, position, span):
                        break
            _finish_shard(g, run, len(candidates), span)
        except BaseException as exc:
            span.set(attempts=run.attempts, outcome=_abort_outcome(exc))
            if not isinstance(exc, QueryCancelledError):
                g.token.cancel(
                    f"shard {shard} failed fatally: {type(exc).__name__}: {exc}"
                )
            raise
    return run


def scatter_gather(
    run_on_replica: Callable[[int, int], ResultSet],
    replica_set: ReplicaSet,
    spec: MergeSpec,
    *,
    health: NodeHealthBoard | None = None,
    hedge: HedgePolicy | None = None,
    quorum_reads: bool = False,
    coordinator_overhead: float = DEFAULT_COORDINATOR_OVERHEAD,
    retry_policy: RetryPolicy | None = None,
    fault_injector: FaultInjector | None = None,
    backend_name: str = "",
    allow_partial: bool = False,
    dispatcher: "Dispatcher | str | None" = None,
    stream: bool = False,
    result_cache: ResultCache | None = None,
    cache_key: Any = None,
) -> ResultSet:
    """Run a query on every shard of *replica_set* and merge the answers.

    ``run_on_replica(shard, node)`` runs the shard query on one copy.  A
    shard's replicas are tried healthiest-first
    (:meth:`NodeHealthBoard.order`).  An attempt that raises a
    :class:`~repro.errors.ConnectorError` is retried under
    *retry_policy*; a replica whose budget is exhausted — or whose
    circuit breaker is open — causes a **failover** to the next, and a
    shard is down only once every replica is exhausted: that raises
    :class:`ShardFailureError`, or with ``allow_partial=True`` drops the
    shard and flags the merged answer ``partial=True``.  Non-connector
    errors (bad queries) propagate unchanged and cancel the sibling
    shards.  A slow attempt is **hedged** against the next healthy
    replica (:func:`_read_hedged`); with ``quorum_reads=True`` a majority
    of replicas must answer with equal row checksums, else
    :class:`~repro.errors.ReplicaDivergenceError`.  With R=1 every shard
    has one candidate, so none of the replica machinery can trigger.

    With *result_cache* and *cache_key* set, each shard's complete
    answer is cached under ``(cache_key, shard)`` together with the node
    that served it, and served from cache before any replica is tried —
    the caller owns making *cache_key* semantic (query text plus dataset
    versions).  Streaming, analyze-mode and quorum gathers bypass the
    cache (:func:`_shard_cache_for`); failed shards store nothing.

    *dispatcher* decides how shard tasks run.  Under ``serial`` they run
    in order on this thread and ``elapsed_seconds`` is the simulated
    ``max(per-shard effective time) + merge time + coordinator
    overhead``; under ``threads`` they run concurrently and the shard
    term is the *measured* dispatch wall time.  With ``stream=True`` and
    a record-stream merge kind the result drains lazily through the
    dispatcher into the k-way merge; blocking merges and analyze mode
    materialize, and quorum reads materialize each shard first.
    """
    if not isinstance(dispatcher, Dispatcher):
        dispatcher = DISPATCHERS[dispatcher or SERIAL]()
    if health is None:
        health = NodeHealthBoard(replica_set.num_nodes, cluster_name=backend_name)
    g = _Gather(
        run_on_replica=run_on_replica,
        replica_set=replica_set,
        health=health,
        hedge=hedge if hedge is not None else HedgePolicy(enabled=False),
        quorum_reads=quorum_reads,
        retry_policy=retry_policy,
        fault_injector=fault_injector,
        backend_name=backend_name,
        allow_partial=allow_partial,
        dispatcher=dispatcher,
        cache=_shard_cache_for(
            result_cache, cache_key, stream=stream, quorum_reads=quorum_reads
        ),
        cache_key=cache_key,
        deadline=current_deadline(),
        token=CancellationToken(parent=current_token()),
    )
    dispatch_started = time.perf_counter()
    with budget_scope(token=g.token):
        runs = dispatcher.map_shards(
            [
                functools.partial(_execute_shard, g, shard)
                for shard in range(replica_set.num_shards)
            ]
        )
    dispatch_elapsed = time.perf_counter() - dispatch_started
    return _merge_runs(g, runs, dispatch_elapsed, spec, stream, coordinator_overhead)


def _gather_stats(g: _Gather, runs: Sequence[_ShardRun]) -> QueryStats:
    """Coordinator-side counters of one gather (shard stats fold in later)."""
    stats = QueryStats()
    for run in runs:
        # Cache-served shards have zero attempts; they spent no retries.
        stats.retries += max(0, run.attempts - 1)
        if run.result is None:
            stats.failed_shards += 1
        stats.failovers += run.failovers
        stats.hedges += run.hedges
        stats.hedge_wins += run.hedge_wins
        stats.quorum_reads += run.quorum_checked
        stats.cancelled += run.cancelled
    stats.dispatch_mode = g.dispatcher.mode
    stats.parallelism = g.dispatcher.parallelism_for(len(runs))
    return stats


def _rollup_profiles(
    answered: Sequence[_ShardRun], title: str, rows_out: int, merge_elapsed: float
) -> OpProfile | None:
    """Shard operator profiles under one coordinator node (analyze mode).

    Each child names its shard and serving replica, so EXPLAIN ANALYZE
    shows the cluster; ``None`` when the shards ran without profiling.
    """
    children = []
    for run in answered:
        profile = run.result.op_profile
        if profile is not None:
            wrapper = OpProfile(f"Shard[{run.shard}]@node{run.served}", children=[profile])
            wrapper.rows_out = profile.rows_out
            wrapper.time_ns = profile.time_ns
            children.append(wrapper)
    if not children:
        return None
    rollup = OpProfile(title, children=children)
    rollup.rows_out = rows_out
    rollup.time_ns = int(sum(child.time_ns for child in children) + merge_elapsed * 1e9)
    return rollup


def _merge_runs(
    g: _Gather,
    runs: Sequence[_ShardRun],
    dispatch_elapsed: float,
    spec: MergeSpec,
    stream: bool,
    coordinator_overhead: float,
) -> ResultSet:
    """Merge the shard answers into the gather's result."""
    num_shards = len(runs)
    answered = [run for run in runs if run.result is not None]
    shard_attempts = tuple(run.attempts for run in runs)
    if not answered:
        raise ShardFailureError(
            f"every shard of {g.label} is down ({num_shards} of {num_shards} failed)",
            attempts=sum(shard_attempts),
        )
    stats = _gather_stats(g, runs)
    shard_results = [run.result for run in answered]
    served_by = tuple(run.served for run in runs)
    if g.dispatcher.real_time:
        shard_wall = dispatch_elapsed
    else:
        shard_wall = max(run.effective for run in answered)
    failed_shards = [run.shard for run in runs if run.result is None]
    partial = bool(failed_shards)
    degraded = f", partial: lost shards {failed_shards}" if partial else ""
    plan = shard_results[0].plan_text
    plan_text = f"scatter-gather[{num_shards} shards, {spec.kind}{degraded}]\n{plan}"

    if _stream_supported(stream, spec, shard_results):
        with budget_scope(token=g.token):
            # Producers capture the gather's budget frame here, so a
            # consumer close (which cancels the token) stops them at
            # their next record boundary.
            sources = g.dispatcher.stream_shards(
                [result.iter_records() for result in shard_results]
            )
        return StreamingResultSet(
            _merge_stream_with_stats(
                spec, sources, stats, shard_results, cancel_token=g.token
            ),
            stats=stats,
            plan_text=plan_text,
            elapsed_seconds=shard_wall + coordinator_overhead,
            partial=partial,
            shard_attempts=shard_attempts,
            served_by=served_by,
        )

    merge_started = time.perf_counter()
    merged = merge_records(spec, [result.records for result in shard_results])
    merge_elapsed = time.perf_counter() - merge_started
    for result in shard_results:
        stats.merge(result.stats)
    return ResultSet(
        records=merged,
        stats=stats,
        plan_text=plan_text,
        elapsed_seconds=shard_wall + merge_elapsed + coordinator_overhead,
        partial=partial,
        shard_attempts=shard_attempts,
        op_profile=_rollup_profiles(
            answered,
            f"ScatterGather[{num_shards} shards, {spec.kind}]",
            len(merged),
            merge_elapsed,
        ),
        served_by=served_by,
    )


def round_robin_shards(records: Sequence[dict[str, Any]], num_shards: int) -> list[list[dict[str, Any]]]:
    """Partition records across shards round-robin (uniform placement)."""
    if num_shards < 1:
        raise ReproError(
            f"round_robin_shards needs at least one shard, got {num_shards}"
        )
    shards: list[list[dict[str, Any]]] = [[] for _ in range(num_shards)]
    for index, record in enumerate(records):
        shards[index % num_shards].append(record)
    return shards


def stable_hash(value: Any) -> int:
    """A process-independent hash for shard placement.

    The builtin ``hash()`` is salted per process for strings (by
    ``PYTHONHASHSEED``), so it cannot decide shard placement reproducibly:
    a coordinator restarted tomorrow would route the same key to a
    different shard.  CRC-32 over the value's ``repr`` is stable across
    processes and platforms; ``repr`` keeps distinct types distinct
    (``1`` vs ``'1'``).
    """
    return zlib.crc32(repr(value).encode("utf-8"))


def shard_records(
    records: Sequence[dict[str, Any]],
    num_shards: int,
    shard_key: str | None = None,
) -> list[list[dict[str, Any]]]:
    """Partition records by stable hash of *shard_key* (round-robin when None).

    Hash placement on the join column makes equi-joins co-located, the way
    Greenplum's ``DISTRIBUTED BY`` and AsterixDB's hash-partitioned
    datasets behave; the scatter-gather join merge is only correct for
    co-located joins, so the benchmark loads data with
    ``shard_key='unique1'``.  Placement uses :func:`stable_hash` so the
    same key lands on the same shard in every process.
    """
    if num_shards < 1:
        raise ReproError(
            f"shard_records needs at least one shard, got {num_shards}"
        )
    if shard_key is None:
        return round_robin_shards(records, num_shards)
    shards: list[list[dict[str, Any]]] = [[] for _ in range(num_shards)]
    for record in records:
        value = record.get(shard_key)
        shards[stable_hash(value) % num_shards].append(record)
    return shards


class ShardedCluster:
    """N engines, one primary per shard, behind a scatter-gather coordinator.

    A backend subclass names itself (``backend``), builds one engine
    (``_make_engine``) and adds its backend-named verbs.  ``_make_engine``
    gets the *replica* label to put in the engine's name — the node index
    for a shard's primary (so primaries keep the seed's names),
    ``"<node>-r<shard>"`` for a backup, which says what it holds — plus
    the engine keywords the caller set.
    """

    #: ``"<backend>[N]"`` names the cluster in stats, metrics and
    #: fault-injector keys.
    backend: str

    def __init__(
        self,
        num_nodes: int,
        *,
        query_prep_overhead: float | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_injector: FaultInjector | None = None,
        allow_partial: bool = False,
        replication_factor: int | None = None,
        hedge: HedgePolicy | None = None,
        quorum_reads: bool = False,
        breaker_factory: Callable[[int], CircuitBreaker | None] | None = None,
        dispatch: "Dispatcher | str | None" = None,
        memory_budget: int | str | None = None,
        cache: "ResultCache | bool | int | str | None" = None,
        admission: "AdmissionController | bool | None" = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.num_nodes = num_nodes
        self.name = name = f"{self.backend}[{num_nodes}]"
        # Every REPRO_* knob, resolved once (repro.config): kwarg, else env.
        config = Config.resolve(
            dispatch=dispatch,
            admission=admission,
            replication_factor=replication_factor,
            cache=cache,
        )
        self._chaos = config.chaos()
        if not isinstance(dispatch, Dispatcher):
            dispatch = DISPATCHERS[config.dispatch]()
        self.dispatcher = dispatch
        self.retry_policy = retry_policy
        self.fault_injector = fault_injector
        self.allow_partial = allow_partial
        #: Coordinator-side load shedding (``admission=`` / ``REPRO_ADMISSION``).
        self.admission = config.admission_controller(admission, name)
        self.replication_factor = min(config.replication_factor, num_nodes)
        self.replica_set = ReplicaSet(num_nodes, num_nodes, self.replication_factor)
        engine_knobs: dict[str, Any] = {"memory_budget": memory_budget}
        if query_prep_overhead is not None:
            # Unset, each backend's engines keep their own default.
            engine_knobs["query_prep_overhead"] = query_prep_overhead
        self.store = ReplicaStore(
            self.replica_set,
            lambda shard, node: self._make_engine(
                str(node) if node == shard else f"{node}-r{shard}", **engine_knobs
            ),
        )
        #: One primary engine per shard — the seed-compatible view.
        self.nodes = self.store.primaries()
        self.health = NodeHealthBoard(
            num_nodes, cluster_name=name, breaker_factory=breaker_factory
        )
        self.hedge = hedge if hedge is not None else HedgePolicy()
        self.quorum_reads = quorum_reads
        #: Per-shard result cache (``cache=`` / ``REPRO_CACHE``); entries
        #: are keyed on the query's spelling plus the cluster's dataset
        #: version vector, so every write invalidates by construction.
        self.result_cache = config.result_cache(cache, name)
        self.dataset_versions = DatasetVersions()

    def _make_engine(self, replica: str, **engine_knobs: Any) -> Any:
        raise NotImplementedError

    def _note_write(self, *names: str) -> None:
        self.dataset_versions.bump(*names)
        if self.result_cache is not None:
            self.result_cache.note_invalidation(len(names))

    def _on_every_copy(self, apply: Callable[[Any], Any], *written: str) -> None:
        """Apply DDL to every replica copy; *written* names what it changed.

        Indexes and stats change plan text, not answers — but cached
        entries carry plan text, so they conservatively invalidate too.
        """
        for engine in self.store.all_engines():
            apply(engine)
        if written:
            self._note_write(*written)

    def _load(
        self,
        dataset: str,
        records: Iterable[dict[str, Any]],
        shard_key: str | None,
        insert: Callable[[Any, list[dict[str, Any]]], int],
    ) -> int:
        """Shard *records* and insert each shard's rows into every copy."""
        total = 0
        shards = shard_records(list(records), self.num_nodes, shard_key)
        for shard, shard_rows in enumerate(shards):
            counts = [insert(copy, shard_rows) for copy in self.store.engines_for(shard)]
            total += counts[0]  # the primary's count; backups repeat it
        self._note_write(dataset)
        return total

    def _gather(
        self,
        run: Callable[..., ResultSet],
        spec: MergeSpec,
        text: str,
        *collection: str,
        stream: bool,
        params: tuple = (),
    ) -> ResultSet:
        """Run ``run(engine)`` on a copy of every shard and merge by *spec*.

        *text* spells the query (and *collection* names its target, when
        the text does not) for the semantic result-cache key; *params*
        are the values bound into a prepared *text*, spelled by ``repr``
        in the key so ``1``, ``1.0`` and ``True`` stay apart.
        """
        injector = self.fault_injector or self._chaos[0]
        policy = self.retry_policy or self._chaos[1]
        cache_key = None
        if self.result_cache is not None:
            versions = self.dataset_versions.vector(text, *collection)
            cache_key = (self.name, *collection, text, repr(params), versions)
        # Tests stub shard engines with plain callables, so only pass the
        # streaming knob through when it is actually on.
        knobs = {"stream": True} if stream else {}
        with admission_gate(self.admission) as queued:
            result = scatter_gather(
                lambda shard, node: run(self.store.engine(shard, node), **knobs),
                self.replica_set,
                spec,
                health=self.health,
                hedge=self.hedge,
                quorum_reads=self.quorum_reads,
                retry_policy=policy,
                fault_injector=injector,
                backend_name=self.name,
                allow_partial=self.allow_partial,
                dispatcher=self.dispatcher,
                stream=stream,
                result_cache=self.result_cache,
                cache_key=cache_key,
            )
        result.stats.queue_wait_ms += queued * 1000.0
        return result


class SQLShardedCluster(ShardedCluster):
    """What the SQL and SQL++ clusters share beyond the skeleton.

    Subclasses set ``dialect``, the query language their shards speak.
    """

    def create_index(self, table: str, column: str, **kwargs: Any) -> None:
        self._on_every_copy(lambda e: e.create_index(table, column, **kwargs), table)

    def analyze(self, table: str) -> None:
        self._on_every_copy(lambda e: e.analyze(table), table)

    @property
    def catalog(self):
        """Metadata view (identical on every node)."""
        return self.nodes[0].catalog

    def row_count(self, table: str) -> int:
        return sum(node.row_count(table) for node in self.nodes)

    def execute(
        self, query_text: str, *, params: tuple = (), stream: bool = False
    ) -> ResultSet:
        # AVG/STDDEV outputs make the shards ship partial states instead
        # of local finals; every other query passes through byte-identical.
        # A prepared text goes to the shards as it is, with its *params*.
        shard_query, spec = plan_select(query_text, self.dialect)
        bound = {"params": params} if params else {}
        return self._gather(
            lambda engine, **knobs: engine.execute(shard_query, **bound, **knobs),
            spec,
            query_text,
            stream=stream,
            params=params,
        )
