"""Abstract database connector.

The paper: *"The database connector is an abstract class in AFrame that
makes connections to database engines.  It also performs AFrame
initialization, pre-processing of queries before sending them to the
database, and post processing of queries' results from the database.  A new
database connector can be included by providing an implementation of these
three required methods."*

On top of the paper's contract, :meth:`send` is the resilience boundary:
it gates requests through an optional per-backend circuit breaker, injects
configured faults (chaos testing), enforces a query deadline, and retries
transient failures under a :class:`~repro.resilience.RetryPolicy` — with
attempt/outcome bookkeeping recorded per query in :class:`SendRecord`.
See ``docs/resilience.md``.
"""

from __future__ import annotations

import abc
import logging
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Iterator

from repro.cache import DatasetVersions, ResultCache, Singleflight, resolve_result_cache
from repro.core.plan.cache import CompiledQueryCache
from repro.core.rewrite import RewriteEngine
from repro.errors import CircuitOpenError, OverloadError, QueryTimeoutError, ReproError
from repro.exec.batch import DEFAULT_BATCH_SIZE
from repro.exec.memory import resolve_budget
from repro.obs import OpProfile, analyze_active, metrics, span_for
from repro.obs.trace import Tracer
from repro.resilience import CircuitBreaker, FaultInjector, QueryTimeout, RetryPolicy
from repro.resilience.admission import AdmissionController, AdmissionTicket, resolve_admission
from repro.resilience.deadline import (
    CancellationToken,
    Deadline,
    current_frame,
    resolve_deadline_seconds,
)
from repro.resilience.faults import global_resilience
from repro.sqlengine.result import QueryStats, ResultSet

#: Query trace: enable with ``logging.getLogger('repro.polyframe').setLevel(DEBUG)``
#: to see every query an action ships, with its timing and result size.
logger = logging.getLogger("repro.polyframe")

#: SendRecord outcomes.
OUTCOME_OK = "ok"  # succeeded, complete answer
OUTCOME_PARTIAL = "partial"  # succeeded, but degraded (shards missing)
OUTCOME_ERROR = "error"  # every attempt failed; the error propagated
OUTCOME_REJECTED = "rejected"  # circuit breaker refused without executing
OUTCOME_SHED = "shed"  # admission control refused without executing
OUTCOME_CANCELLED = "cancelled"  # cooperatively cancelled before finishing


@dataclass(frozen=True)
class SendRecord:
    """Timing and outcome of one query sent through a connector.

    ``real_seconds`` is the wall time this process spent executing the
    query (all attempts, including backoff sleeps); ``reported_seconds``
    is what the engine reports, which for the cluster simulations is the
    parallel elapsed time an N-node cluster would observe — simulated
    (``max`` over shards) under the serial dispatcher, measured under the
    thread dispatcher.  The benchmark runner uses the difference to
    report cluster timings correctly.

    ``attempts`` counts connector-level execution attempts (1 = first try
    succeeded); ``shard_retries`` counts extra per-shard attempts a
    cluster's scatter-gather spent below this send; ``failovers`` and
    ``hedges`` count replica failovers and hedged requests spent below
    this send (replicated clusters only); ``outcome`` is one of ``'ok'``,
    ``'partial'``, ``'error'``, ``'rejected'``.

    ``rows_scanned`` is the engine's total data touches for the query
    (heap fetches plus index entries), and ``exec_engine`` which
    execution path produced the answer (``'row'`` / ``'vector'``, empty
    for engines without the distinction) — the bench layer derives
    ``rows_per_sec`` from these.

    ``dispatch_mode`` records how a cluster ran its shard queries
    (``'serial'`` / ``'threads'``, empty for single-node sends) and
    ``parallelism`` how many were in flight at once.

    ``peak_mem_bytes`` is the engine's peak accounted operator memory for
    the query and ``spill_bytes`` how much it wrote to disk spill runs
    (zero for engines without blocking operators, and for streaming
    sends, whose stats are only final on ``result.stats`` once the
    stream is drained).

    ``cache_hits`` / ``cache_misses`` count result-cache probes behind
    this send (a whole-send hit has ``attempts == 0`` — the backend was
    never consulted — plus any per-shard hits a cluster's scatter-gather
    served below it); ``singleflight_waits`` marks a send that blocked
    on an identical in-flight query and shared its answer.  All zero
    with caching off (the default).

    ``queue_wait_ms`` is how long this send waited in admission queues
    (the connector's own gate plus any per-cluster gate below it);
    ``deadline_budget_ms`` is how much of the query's deadline budget
    remained when the send finished (zero with no deadline configured —
    the default); ``cancelled`` counts sibling work units below this
    send that were cooperatively cancelled rather than finishing.  A
    send shed by admission control has ``outcome == 'shed'`` and
    ``attempts == 0``; one abandoned by cancellation has
    ``outcome == 'cancelled'``.
    """

    real_seconds: float
    reported_seconds: float
    attempts: int = 1
    outcome: str = OUTCOME_OK
    shard_retries: int = 0
    rows_scanned: int = 0
    exec_engine: str = ""
    failovers: int = 0
    hedges: int = 0
    dispatch_mode: str = ""
    parallelism: int = 0
    peak_mem_bytes: int = 0
    spill_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    singleflight_waits: int = 0
    queue_wait_ms: float = 0.0
    deadline_budget_ms: float = 0.0
    cancelled: int = 0

    @property
    def retries(self) -> int:
        """Total extra attempts spent on this query, at every level."""
        return max(0, self.attempts - 1) + self.shard_retries


def _engines_of(database: Any) -> list[Any]:
    """Every engine instance behind *database*.

    A cluster answers with all its replica copies, not just the
    primaries: backups must run with the same settings, or a failover
    would silently change the exec path or the memory ceiling.
    """
    store = getattr(database, "store", None)
    if hasattr(store, "all_engines"):
        return store.all_engines()
    return [database]


def set_exec_engine(database: Any, exec_engine: str) -> None:
    """Point *database* (or every node of a cluster) at an execution engine.

    The connector-level counterpart of the ``REPRO_EXEC`` environment
    variable, for the embedded SQL/SQL++ engines that support both paths.
    """
    if exec_engine not in ("row", "vector"):
        raise ValueError(f"unknown exec_engine {exec_engine!r}")
    for engine in _engines_of(database):
        engine.exec_engine = exec_engine


def set_memory_budget(database: Any, memory_budget: int | str | None) -> None:
    """Point *database* (or every node of a cluster) at a per-query budget.

    The connector-level counterpart of the ``REPRO_MEM_BUDGET``
    environment variable; accepts the same spellings (bytes, or a string
    with an optional ``k``/``m``/``g`` suffix).
    """
    budget = resolve_budget(memory_budget)
    for engine in _engines_of(database):
        engine.memory_budget = budget


def _default_optimization_level() -> int:
    """Process-wide default plan-optimization level (``REPRO_OPT_LEVEL``)."""
    raw = os.environ.get("REPRO_OPT_LEVEL", "").strip()
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_OPT_LEVEL must be an integer, got {raw!r}"
        ) from None


class DatabaseConnector(abc.ABC):
    """Binds PolyFrame to one query-based database system.

    Subclasses set :attr:`language` (which built-in rule set to load) and
    implement :meth:`_execute`.  ``rule_overrides`` lets callers install
    user-defined rewrites at connection time.

    Resilience knobs (all optional, all public attributes so they can be
    reconfigured after construction):

    - ``retry_policy`` — retry transient failures with backoff.
    - ``timeout`` — per-attempt deadline (:class:`QueryTimeout` or seconds).
    - ``circuit_breaker`` — fail fast while the backend is unhealthy.
    - ``fault_injector`` — chaos hooks for deterministic failure testing.
    - ``deadline`` — an end-to-end per-action budget in seconds
      (:class:`~repro.resilience.Deadline`); ``None`` defers to the
      ``REPRO_DEADLINE`` environment variable, and both default to off —
      the seed behaviour.  Unlike ``timeout`` the deadline spans *every*
      attempt, backoff sleep, shard, hedge, and streamed batch of one
      action.  See ``docs/deadlines.md``.
    - ``admission`` — overload protection: ``True`` /
      an :class:`~repro.resilience.AdmissionController` (shareable for a
      cluster-wide limit) gates sends through a bounded, deadline-aware,
      AIMD-adaptive admission queue; ``None`` defers to
      ``REPRO_ADMISSION``, ``False`` disables.  Shed queries raise the
      retryable :class:`~repro.errors.OverloadError` without executing.

    When no ``fault_injector`` is set and the ``REPRO_FAULT_RATE``
    environment variable is, a process-wide injector (plus a default retry
    policy, unless one was given) is used instead — the CI chaos job runs
    the whole suite this way.

    Compilation knobs (the logical-plan layer, see ``docs/plan-ir.md``):

    - ``optimization_level`` — the plan-optimization level frames compiled
      through this connector use by default (0 = byte-parity with the
      eager rewriter, 1 = structural fusion, 2 = + scan fusion).  Defaults
      to the ``REPRO_OPT_LEVEL`` environment variable, else 0.
    - ``compile_cache`` — this connector's :class:`CompiledQueryCache`.
    - ``compile_log`` — one :class:`~repro.core.plan.compiler.CompileRecord`
      per compilation, in order (the bench layer diffs this like
      ``send_log``).

    Result caching (off by default — seed-identical; see
    ``docs/caching.md``):

    - ``cache`` — ``True``/byte size/:class:`~repro.cache.ResultCache`
      enables semantic result caching on this connector; ``None`` defers
      to the ``REPRO_CACHE`` environment variable, ``False`` disables
      even when it is set.  The resolved cache is the public
      ``result_cache`` attribute.
    - ``dataset_versions`` — the per-dataset version counters behind
      write invalidation; :meth:`note_write` bumps them.
    """

    #: Name of the rewrite-rule language this connector speaks.
    language: str = ""

    def __init__(
        self,
        rule_overrides: dict[str, str] | None = None,
        *,
        retry_policy: RetryPolicy | None = None,
        timeout: QueryTimeout | float | None = None,
        circuit_breaker: CircuitBreaker | None = None,
        fault_injector: FaultInjector | None = None,
        deadline: float | None = None,
        admission: "AdmissionController | bool | None" = None,
        optimization_level: int | None = None,
        cache: "ResultCache | bool | int | str | None" = None,
    ) -> None:
        if not self.language:
            raise TypeError("connector subclasses must set a language")
        self.rewriter = RewriteEngine(self.language, rule_overrides)
        self.send_log: list[SendRecord] = []
        self.retry_policy = retry_policy
        self.timeout = QueryTimeout(timeout) if isinstance(timeout, (int, float)) else timeout
        self.circuit_breaker = circuit_breaker
        self.fault_injector = fault_injector
        self.deadline = deadline
        #: Monotonic clock used for deadlines this connector creates
        #: itself (action roots, env-driven per-send budgets); tests
        #: inject a fake clock here for deterministic budget accounting.
        self.deadline_clock = time.monotonic
        self.admission = resolve_admission(admission, backend=self.name)
        self._warned_stream_retry = False
        if optimization_level is None:
            optimization_level = _default_optimization_level()
        self.optimization_level = optimization_level
        self.compile_cache = CompiledQueryCache()
        self.compile_log: list = []
        self.tracer: Tracer | None = None
        self.result_cache = resolve_result_cache(cache, backend=self.name)
        self.dataset_versions = DatasetVersions()
        self._singleflight = Singleflight()

    def set_tracer(self, tracer: Tracer | None) -> None:
        """Trace every action through this connector (``None`` disables).

        A connector-scoped alternative to the process-wide ``REPRO_TRACE``
        tracer; when both are configured the connector's wins.  See
        ``docs/observability.md``.
        """
        self.tracer = tracer

    # ------------------------------------------------------------------
    # The three required methods
    # ------------------------------------------------------------------
    def preprocess(self, query: str, collection: str) -> Any:
        """Transform rewritten query text into what the engine accepts.

        Default: pass the text through unchanged.
        """
        return query

    def send(self, query: str, collection: str, *, stream: bool = False) -> ResultSet:
        """Execute *query* (already rewritten) and return the raw result.

        Wraps the backend call with circuit breaking, fault injection,
        deadline enforcement, bounded retries, and timing/outcome
        bookkeeping (see :class:`SendRecord`); backends implement
        :meth:`_execute`.  When tracing is enabled the whole send is one
        ``dispatch`` span with an ``attempt`` child per execution try, and
        the finished :class:`SendRecord` is mirrored onto the span's
        attributes.

        With ``stream=True`` the result drains lazily from the engine
        (when the backend supports it) — but only when no retry policy
        is configured: a retry needs the attempt's full outcome before
        :meth:`send` returns, so retry-wrapped sends materialize instead
        (a warning is logged once per connector; the old behaviour
        silently dropped the stream).  A per-attempt ``timeout`` no
        longer forces materialization: it is enforced on the *drain* as
        a deadline, checked at every batch boundary, as is any ambient
        or configured :class:`~repro.resilience.Deadline` — a streamed
        query whose budget runs out raises
        :class:`~repro.errors.QueryTimeoutError` at the next boundary
        instead of bypassing the limit.  A streaming send's
        :class:`SendRecord` carries the stats known at dispatch time;
        drain-dependent numbers (rows scanned, memory peaks) are final
        on ``result.stats`` once the stream is exhausted.

        With result caching on (``cache=`` / ``REPRO_CACHE``) the send
        first probes the :class:`~repro.cache.ResultCache` under a
        ``cache`` child span — a hit is served without touching the
        breaker, injector, or backend (``attempts == 0``) — and
        concurrent identical non-streaming sends are deduplicated
        through singleflight: one executes, the rest share its answer.
        """
        injector = self.fault_injector
        policy = self.retry_policy
        if injector is None:
            injector, global_policy = global_resilience()
            if policy is None:
                policy = global_policy
        breaker = self.circuit_breaker
        streaming = stream and policy is None
        if stream and policy is not None and not self._warned_stream_retry:
            self._warned_stream_retry = True
            logger.warning(
                "%s: streaming send materializes because a retry policy is "
                "configured — a retry needs the attempt's full outcome "
                "before send() returns (deadlines still apply; see "
                "docs/deadlines.md)",
                self.name,
            )
        frame = current_frame()
        deadline = frame.deadline
        token = frame.token
        if deadline is None:
            seconds = resolve_deadline_seconds(self.deadline)
            if seconds is not None:
                deadline = Deadline(seconds, clock=self.deadline_clock)
        if deadline is None and streaming and self.timeout is not None:
            # No end-to-end budget, but a per-attempt timeout: for a
            # streamed attempt "the attempt" is the whole drain, so the
            # timeout becomes the drain deadline.
            deadline = Deadline(self.timeout.seconds, clock=self.deadline_clock)
        cache = self.result_cache

        self._count("queries_total")
        with span_for(self, "dispatch", backend=self.name, collection=collection) as dspan:
            total_started = time.perf_counter()
            key = None
            if cache is not None:
                key = (
                    self.name,
                    self.optimization_level,
                    collection,
                    query,
                    self.dataset_versions.vector(query, collection),
                )
                hit = self._serve_cache_hit(cache, key, dspan, total_started)
                if hit is not None:
                    return hit
            if cache is not None and not streaming:
                # Singleflight: concurrent identical sends execute once.
                # The leader runs the full attempt loop (and stores the
                # answer below); followers share it without executing.
                lead: list[bool] = []

                def produce():
                    lead.append(True)
                    return self._run_attempts(
                        query, collection, streaming, injector, policy,
                        breaker, dspan, total_started, cache_active=True,
                        deadline=deadline, token=token,
                    )

                try:
                    waited, payload = self._singleflight.run(key, produce)
                except BaseException:
                    if not lead:
                        # The leader failed; record this follower's view
                        # (it never executed an attempt of its own).
                        dspan.set(outcome=OUTCOME_ERROR, attempts=0)
                        self.send_log.append(
                            SendRecord(
                                time.perf_counter() - total_started,
                                0.0,
                                attempts=0,
                                outcome=OUTCOME_ERROR,
                                cache_misses=1,
                                singleflight_waits=1,
                            )
                        )
                    raise
                if waited:
                    return self._serve_singleflight(payload, dspan, total_started)
                result, attempt, queue_wait, stream_release = payload
            else:
                result, attempt, queue_wait, stream_release = self._run_attempts(
                    query, collection, streaming, injector, policy,
                    breaker, dspan, total_started, cache_active=cache is not None,
                    deadline=deadline, token=token,
                )

            if getattr(result, "streaming", False) and (
                deadline is not None or token is not None or stream_release is not None
            ):
                self._guard_stream(result, deadline, token, stream_release, query)
            real = time.perf_counter() - total_started
            if cache is not None:
                result.stats.result_cache_misses += 1
            record = SendRecord(
                real,
                result.elapsed_seconds,
                attempts=attempt,
                outcome=OUTCOME_PARTIAL if result.partial else OUTCOME_OK,
                shard_retries=result.stats.retries,
                rows_scanned=result.stats.heap_fetches + result.stats.index_entries,
                exec_engine=result.stats.exec_engine,
                failovers=result.stats.failovers,
                hedges=result.stats.hedges,
                dispatch_mode=result.stats.dispatch_mode,
                parallelism=result.stats.parallelism,
                peak_mem_bytes=result.stats.peak_mem_bytes,
                spill_bytes=result.stats.spill_bytes,
                cache_hits=result.stats.result_cache_hits,
                cache_misses=result.stats.result_cache_misses,
                singleflight_waits=result.stats.singleflight_waits,
                queue_wait_ms=queue_wait * 1000.0 + result.stats.queue_wait_ms,
                deadline_budget_ms=(
                    deadline.remaining() * 1000.0 if deadline is not None else 0.0
                ),
                cancelled=result.stats.cancelled,
            )
            self.send_log.append(record)
            on_drain = getattr(result, "on_drain", None)
            if streaming and on_drain is not None:
                # Drain-dependent numbers (rows scanned, memory peaks,
                # spill volume) are only final once the stream is
                # exhausted; restamp the log entry in place then.
                self._restamp_on_drain(
                    result, record, len(self.send_log) - 1, queue_wait
                )
            if cache is not None:
                if getattr(result, "streaming", False):
                    # Tee the stream into the cache: admitted only if it
                    # drains to completion (never a truncated answer).
                    cache.admit_stream(key, result)
                else:
                    cache.store(
                        key,
                        result.records,
                        elapsed_seconds=real,
                        plan_text=result.plan_text,
                        partial=result.partial,
                    )
            self._count("retries_total", record.retries)
            self._count("rows_scanned", record.rows_scanned)
            metrics.histogram("query_seconds", backend=self.name).observe(real)
            if dspan.recording:
                dspan.set(
                    rows=len(result.records),
                    real_seconds=record.real_seconds,
                    reported_seconds=record.reported_seconds,
                    attempts=record.attempts,
                    outcome=record.outcome,
                    shard_retries=record.shard_retries,
                    rows_scanned=record.rows_scanned,
                    exec_engine=record.exec_engine,
                    failovers=record.failovers,
                    hedges=record.hedges,
                    dispatch_mode=record.dispatch_mode,
                    parallelism=record.parallelism,
                    peak_mem_bytes=record.peak_mem_bytes,
                    spill_bytes=record.spill_bytes,
                    cache_hits=record.cache_hits,
                    cache_misses=record.cache_misses,
                    singleflight_waits=record.singleflight_waits,
                    queue_wait_ms=record.queue_wait_ms,
                    deadline_budget_ms=record.deadline_budget_ms,
                    cancelled=record.cancelled,
                )
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "%s <- %s (%d rows, %.2fms, %d attempts)\n%s",
                self.name, collection, len(result.records), real * 1000, attempt, query,
            )
        return result

    def _run_attempts(
        self,
        query: str,
        collection: str,
        streaming: bool,
        injector: FaultInjector | None,
        policy: RetryPolicy | None,
        breaker: CircuitBreaker | None,
        dspan: Any,
        total_started: float,
        *,
        cache_active: bool = False,
        deadline: Deadline | None = None,
        token: CancellationToken | None = None,
    ) -> tuple[ResultSet, int, float, "Any | None"]:
        """The admission/breaker/injector/timeout/retry loop of one send.

        Returns ``(result, attempts, queue_wait_seconds, stream_release)``
        where ``stream_release`` is a callable releasing the admission
        slot of a *streaming* result (``None`` otherwise) — a streamed
        query occupies its slot until the stream drains or is closed,
        not just until dispatch returns.
        """
        cache_misses = 1 if cache_active else 0
        queue_wait = 0.0
        ticket = self._admit(deadline, dspan, total_started, cache_misses)
        if ticket is not None:
            queue_wait = ticket.queue_wait_seconds
        admitted_at = time.perf_counter()
        ok = False
        result: ResultSet | None = None
        try:
            attempt = 0
            while True:
                attempt += 1
                if token is not None and token.cancelled:
                    dspan.set(outcome=OUTCOME_CANCELLED, attempts=attempt - 1)
                    self.send_log.append(
                        SendRecord(
                            time.perf_counter() - total_started,
                            0.0,
                            attempts=attempt - 1,
                            outcome=OUTCOME_CANCELLED,
                            cache_misses=cache_misses,
                            queue_wait_ms=queue_wait * 1000.0,
                            cancelled=1,
                        )
                    )
                    token.check(where=f"{self.name} dispatch")
                if deadline is not None and deadline.expired():
                    # Eager: an attempt that starts with no budget left
                    # cannot finish in time, so fail now instead.
                    self._count("deadline_exceeded_total")
                    dspan.set(outcome=OUTCOME_ERROR, attempts=attempt - 1)
                    self.send_log.append(
                        SendRecord(
                            time.perf_counter() - total_started,
                            0.0,
                            attempts=attempt - 1,
                            outcome=OUTCOME_ERROR,
                            cache_misses=cache_misses,
                            queue_wait_ms=queue_wait * 1000.0,
                        )
                    )
                    deadline.check(backend=self.name, query=query)
                if breaker is not None:
                    try:
                        breaker.allow()
                    except CircuitOpenError:
                        self._count("circuit_rejections_total")
                        dspan.set(outcome=OUTCOME_REJECTED, attempts=attempt - 1)
                        self.send_log.append(
                            SendRecord(
                                time.perf_counter() - total_started,
                                0.0,
                                attempts=attempt - 1,
                                outcome=OUTCOME_REJECTED,
                                cache_misses=cache_misses,
                                queue_wait_ms=queue_wait * 1000.0,
                            )
                        )
                        raise
                attempt_started = time.perf_counter()
                with span_for(self, "attempt", number=attempt) as aspan:
                    try:
                        if injector is not None:
                            injector.before_request(self.name)
                        result = (
                            self._execute_stream(query, collection)
                            if streaming
                            else self._execute(query, collection)
                        )
                        if self.timeout is not None and not streaming:
                            self.timeout.check(
                                time.perf_counter() - attempt_started,
                                backend=self.name,
                                query=query,
                            )
                        if deadline is not None and not streaming:
                            # Streamed attempts are checked per batch on
                            # the drain, where the work actually happens.
                            deadline.check(backend=self.name, query=query)
                    except Exception as exc:
                        if breaker is not None:
                            breaker.record_failure()
                        if policy is not None and policy.should_retry(exc, attempt):
                            aspan.set(
                                error=f"{type(exc).__name__}: {exc}", retried=True
                            )
                            logger.debug(
                                "%s attempt %d failed (%s); retrying",
                                self.name, attempt, exc,
                            )
                            # Clamped: if the budget runs out during the
                            # backoff, the next loop iteration fails
                            # eagerly instead of launching the attempt.
                            policy.wait(attempt, deadline=deadline)
                            continue
                        self._count("retries_total", attempt - 1)
                        if isinstance(exc, QueryTimeoutError) and (
                            deadline is not None and deadline.expired()
                        ):
                            self._count("deadline_exceeded_total")
                        dspan.set(outcome=OUTCOME_ERROR, attempts=attempt)
                        self.send_log.append(
                            SendRecord(
                                time.perf_counter() - total_started,
                                0.0,
                                attempts=attempt,
                                outcome=OUTCOME_ERROR,
                                cache_misses=cache_misses,
                                queue_wait_ms=queue_wait * 1000.0,
                            )
                        )
                        raise
                    break
            ok = True
        finally:
            if ticket is not None and not (
                ok and getattr(result, "streaming", False)
            ):
                ticket.release(time.perf_counter() - admitted_at, ok=ok)

        stream_release = None
        if ticket is not None and getattr(result, "streaming", False):

            def stream_release(drained_ok: bool) -> None:
                ticket.release(time.perf_counter() - admitted_at, ok=drained_ok)

        if breaker is not None:
            breaker.record_success()
        return result, attempt, queue_wait, stream_release

    def _admit(
        self,
        deadline: Deadline | None,
        dspan: Any,
        total_started: float,
        cache_misses: int,
    ) -> "AdmissionTicket | None":
        """Gate one send through the admission controller, if configured.

        A shed query is logged with outcome ``'shed'`` and raises the
        retryable :class:`~repro.errors.OverloadError` without ever
        touching the breaker, injector, or backend; a queued query whose
        deadline expires while waiting raises
        :class:`~repro.errors.QueryTimeoutError` the same way.
        """
        controller = self.admission
        if controller is None:
            return None
        with span_for(self, "queue", backend=self.name) as qspan:
            try:
                ticket = controller.acquire(deadline)
            except OverloadError:
                qspan.set(outcome="shed")
                dspan.set(outcome=OUTCOME_SHED, attempts=0)
                self.send_log.append(
                    SendRecord(
                        time.perf_counter() - total_started,
                        0.0,
                        attempts=0,
                        outcome=OUTCOME_SHED,
                        cache_misses=cache_misses,
                    )
                )
                raise
            except QueryTimeoutError:
                qspan.set(outcome="timeout")
                self._count("deadline_exceeded_total")
                dspan.set(outcome=OUTCOME_ERROR, attempts=0)
                self.send_log.append(
                    SendRecord(
                        time.perf_counter() - total_started,
                        0.0,
                        attempts=0,
                        outcome=OUTCOME_ERROR,
                        cache_misses=cache_misses,
                    )
                )
                raise
            qspan.set(queue_wait_ms=ticket.queue_wait_seconds * 1000.0)
        return ticket

    def _guard_stream(
        self,
        result: ResultSet,
        deadline: Deadline | None,
        token: CancellationToken | None,
        stream_release: "Any | None",
        query: str,
    ) -> None:
        """Enforce deadline/cancellation on a stream at batch boundaries.

        Wraps the streaming result's source so every record boundary
        checks the remaining deadline budget and the cancellation token
        — a deadline-exceeded streamed query raises
        :class:`~repro.errors.QueryTimeoutError` at the next boundary
        instead of draining to completion (or hanging), and a cancelled
        one stops with :class:`~repro.errors.QueryCancelledError`.  The
        admission slot of a streamed query (``stream_release``) is
        returned when the stream drains, fails, or is closed.
        """

        def guarded(source: Iterator[Any]) -> Iterator[Any]:
            drained_ok = False
            try:
                for record in source:
                    if token is not None and token.cancelled:
                        result.stats.cancelled += 1
                        token.check(where=f"{self.name} stream drain")
                    if deadline is not None and deadline.expired():
                        self._count("deadline_exceeded_total")
                        deadline.check(
                            backend=self.name, query=query, where="stream drain"
                        )
                    yield record
                drained_ok = True
            finally:
                if stream_release is not None:
                    stream_release(drained_ok)

        result.wrap_source(guarded)

    def _serve_cache_hit(
        self, cache: ResultCache, key: Any, dspan: Any, total_started: float
    ) -> ResultSet | None:
        """Probe the result cache; build and log a served result on a hit.

        A hit never touches the circuit breaker, fault injector, or
        backend — its :class:`SendRecord` has ``attempts == 0`` and both
        its real and reported time are the measured lookup cost.  Under
        analyze mode the result carries a synthetic ``ResultCache[hit]``
        operator profile so ``explain(analyze=True)`` shows where the
        answer came from.
        """
        with span_for(self, "cache", op="lookup") as cspan:
            entry = cache.lookup(key)
            cspan.set(outcome="hit" if entry is not None else "miss")
        if entry is None:
            return None
        real = time.perf_counter() - total_started
        result = ResultSet(
            records=list(entry.records),
            stats=QueryStats(result_cache_hits=1),
            plan_text=entry.plan_text,
            elapsed_seconds=real,
        )
        if analyze_active():
            profile = OpProfile("ResultCache[hit]")
            profile.rows_out = len(result.records)
            profile.time_ns = int(real * 1e9)
            result.op_profile = profile
        record = SendRecord(real, real, attempts=0, cache_hits=1)
        self.send_log.append(record)
        metrics.histogram("query_seconds", backend=self.name).observe(real)
        if dspan.recording:
            dspan.set(
                rows=len(result.records),
                real_seconds=real,
                reported_seconds=real,
                attempts=0,
                outcome=OUTCOME_OK,
                cache_hits=1,
            )
        return result

    def _serve_singleflight(
        self, payload: tuple, dspan: Any, total_started: float
    ) -> ResultSet:
        """Clone a singleflight leader's answer for a follower send.

        The follower never executed — ``attempts == 0`` — and its time
        is the wait on the leader.  Records are shared with the leader's
        result (a fresh list, the same record objects, exactly like a
        cache hit); stats are the follower's own.
        """
        leader_result = payload[0]
        real = time.perf_counter() - total_started
        result = ResultSet(
            records=list(leader_result.records),
            stats=QueryStats(result_cache_misses=1, singleflight_waits=1),
            plan_text=leader_result.plan_text,
            elapsed_seconds=real,
            partial=leader_result.partial,
            shard_attempts=leader_result.shard_attempts,
            served_by=leader_result.served_by,
        )
        self._count("singleflight_waits_total")
        outcome = OUTCOME_PARTIAL if result.partial else OUTCOME_OK
        record = SendRecord(
            real,
            real,
            attempts=0,
            outcome=outcome,
            cache_misses=1,
            singleflight_waits=1,
        )
        self.send_log.append(record)
        metrics.histogram("query_seconds", backend=self.name).observe(real)
        if dspan.recording:
            dspan.set(
                rows=len(result.records),
                real_seconds=real,
                reported_seconds=real,
                attempts=0,
                outcome=outcome,
                cache_misses=1,
                singleflight_waits=1,
            )
        return result

    def _count(self, name: str, amount: int = 1) -> None:
        """Increment both the headline and the per-backend metric series."""
        if amount:
            metrics.counter(name).inc(amount)
            metrics.counter(name, backend=self.name).inc(amount)

    @abc.abstractmethod
    def _execute(self, query: str, collection: str) -> ResultSet:
        """Backend-specific execution of an already-rewritten query."""

    def _restamp_on_drain(
        self, result: ResultSet, record: SendRecord, index: int, queue_wait: float
    ) -> None:
        """Refresh a streaming send's log entry once its stream drains."""

        def restamp() -> None:
            stats = result.stats
            updated = replace(
                record,
                shard_retries=stats.retries,
                rows_scanned=stats.heap_fetches + stats.index_entries,
                exec_engine=stats.exec_engine,
                failovers=stats.failovers,
                hedges=stats.hedges,
                dispatch_mode=stats.dispatch_mode,
                parallelism=stats.parallelism,
                peak_mem_bytes=stats.peak_mem_bytes,
                spill_bytes=stats.spill_bytes,
                cache_hits=stats.result_cache_hits,
                cache_misses=stats.result_cache_misses,
                singleflight_waits=stats.singleflight_waits,
                queue_wait_ms=queue_wait * 1000.0 + stats.queue_wait_ms,
                cancelled=stats.cancelled,
            )
            if self.send_log[index] is record:
                self.send_log[index] = updated
            self._count("rows_scanned", updated.rows_scanned - record.rows_scanned)

        result.on_drain(restamp)

    def _execute_stream(self, query: str, collection: str) -> ResultSet:
        """Execute with a lazily-draining result when the engine can.

        The default materializes via :meth:`_execute` — the documented
        fallback for backends without pull-based execution.  Backends
        whose engine takes ``stream=True`` override this.
        """
        return self._execute(query, collection)

    def send_stream(
        self, query: str, collection: str, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[list[Any]]:
        """Execute *query* and yield its records in lists of *batch_size*.

        Goes through :meth:`send` with ``stream=True``, so on engines
        with pull-based execution at most one batch (plus bounded
        operator state) is held at the coordinator at a time; engines
        without it fall back to a materialized result and this still
        yields the same chunks.
        """
        if not isinstance(batch_size, int) or isinstance(batch_size, bool) or batch_size < 1:
            raise ReproError(
                f"batch_size must be a positive integer, got {batch_size!r}"
            )
        return self._batches(query, collection, batch_size)

    def _batches(
        self, query: str, collection: str, batch_size: int
    ) -> Iterator[list[Any]]:
        result = self.send(query, collection, stream=True)
        batch: list[Any] = []
        for record in result.iter_records():
            batch.append(record)
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    # ------------------------------------------------------------------
    # Result persistence (the configs' SAVE RESULTS vocabulary)
    # ------------------------------------------------------------------
    def persist(
        self, query: str, source_collection: str, namespace: str, target: str
    ) -> None:
        """Save *query*'s results as a new dataset/collection *target*.

        Default strategy: evaluate the query and bulk-load the records into
        a newly created container.  Backends with a native save-results
        operator (MongoDB's ``$out``) override this to push the write into
        the query itself.
        """
        final = self.rewriter.apply("return_all", subquery=query)
        records = self.postprocess(self.send(final, source_collection))
        self._create_and_load(namespace, target, records)
        self.note_write(self.qualified_name(namespace, target), target)

    def note_write(self, *datasets: str) -> None:
        """Record a write to *datasets* so cached results over them go stale.

        Bumps the per-dataset version counters that are part of every
        cache key — an entry cached before the write can never match a
        lookup after it.  Connector-side mutating paths (:meth:`persist`)
        call this themselves; code that writes through the engine
        directly must call it for the result cache to notice.  A no-op
        observability-wise when caching is off (versions still advance,
        so enabling the cache later starts consistent).
        """
        names = [name for name in datasets if name]
        self.dataset_versions.bump(*names)
        if self.result_cache is not None and names:
            self.result_cache.note_invalidation(len(names))

    def _create_and_load(
        self, namespace: str, target: str, records: list[dict[str, Any]]
    ) -> None:
        raise NotImplementedError(
            f"{self.name} does not implement result persistence"
        )

    def postprocess(self, result: ResultSet) -> list[dict[str, Any]]:
        """Normalize engine output into a list of record dicts."""
        return result.to_records()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return type(self).__name__

    def nesting_depth(self, query: str) -> int:
        """Subquery nesting depth of generated *query* text.

        The honest per-language measure the bench layer and the fusion
        tests use: for SQL-shaped languages it is the number of nested
        ``(SELECT`` subqueries plus the outer query.  Pipeline and clause
        languages override this (Mongo counts pipeline stages, Cypher
        counts chained clause lines).
        """
        return query.count("(SELECT") + 1

    @abc.abstractmethod
    def collection_exists(self, namespace: str, collection: str) -> bool:
        """Verify the dataset exists (PolyFrame initialization check)."""

    def qualified_name(self, namespace: str, collection: str) -> str:
        """How this backend spells 'namespace.collection'."""
        return f"{namespace}.{collection}" if namespace else collection
