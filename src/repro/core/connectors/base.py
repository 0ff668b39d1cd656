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
import operator
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Iterator

from repro.cache import DatasetVersions, ResultCache, Singleflight
from repro.cache.compiled import CompiledQueryCache
from repro.config import Config
from repro.core.rewrite import RewriteEngine
from repro.errors import (
    CircuitOpenError,
    OverloadError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
)
from repro.exec.batch import DEFAULT_BATCH_SIZE
from repro.obs import NOOP_SPAN, OpProfile, analyze_active, metrics, tracer_for
from repro.obs.trace import Tracer
from repro.resilience import CircuitBreaker, FaultInjector, QueryTimeout, RetryPolicy
from repro.resilience.admission import AdmissionController, AdmissionTicket
from repro.resilience.deadline import CancellationToken, Deadline, current_frame
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
    succeeded; 0 = the backend was never consulted: a cache hit, a
    singleflight follower, a send shed by admission control); ``outcome``
    is one of ``'ok'``, ``'partial'``, ``'error'``, ``'rejected'``,
    ``'shed'``, ``'cancelled'``; ``deadline_budget_ms`` is how much of
    the query's deadline budget remained when the send finished (zero
    with no deadline configured — the default).

    Every other field mirrors the answer's
    :class:`~repro.sqlengine.result.QueryStats` (see
    :meth:`from_stats`): by name, or as ``shard_retries`` (``retries``),
    ``cache_hits`` / ``cache_misses`` (``result_cache_*``) and
    ``rows_scanned`` (heap fetches plus index entries); the statistics
    table in ``docs/observability.md`` lists them.  A streaming send's
    record has the dispatch-time stats until its stream drains, then
    the final ones.
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

    @classmethod
    def from_stats(
        cls, stats: QueryStats, *, queue_wait_ms: float, **own: Any
    ) -> "SendRecord":
        """The record of an answered send: what its result's *stats* say.

        The one place :class:`~repro.sqlengine.result.QueryStats` maps
        onto a record.  *queue_wait_ms* is the connector's own gate; any
        per-cluster gate below it is already in *stats* and adds to it.
        *own* are the fields only the send itself knows: its two times,
        ``attempts``, ``outcome`` and ``deadline_budget_ms``.
        """
        record = object.__new__(cls)
        # Filled in one step: the frozen __init__ costs a call per field.
        record.__dict__.update(
            zip(_MIRRORED, _read_mirrored(stats)),
            shard_retries=stats.retries,
            rows_scanned=stats.heap_fetches + stats.index_entries,
            cache_hits=stats.result_cache_hits,
            cache_misses=stats.result_cache_misses,
            queue_wait_ms=queue_wait_ms + stats.queue_wait_ms,
            **own,
        )
        return record

    @property
    def retries(self) -> int:
        """Total extra attempts spent on this query, at every level."""
        return max(0, self.attempts - 1) + self.shard_retries


#: The record fields :meth:`SendRecord.from_stats` copies by name.
_MIRRORED = tuple(
    f.name
    for f in fields(SendRecord)
    if f.name in QueryStats.__dataclass_fields__
    and f.name not in ("queue_wait_ms", "deadline_budget_ms")
)
_read_mirrored = operator.attrgetter(*_MIRRORED)


@dataclass(slots=True)
class _Send:
    """What every step of one :meth:`DatabaseConnector.send` shares.

    The connector-side twin of ``cluster/base.py::_Gather``: built once
    at the top of ``send()``.  The first twelve fields are read-only after
    that; the rest accumulate as the send proceeds, and are what
    :meth:`DatabaseConnector._log` turns into the :class:`SendRecord`.
    """

    query: str
    collection: str
    #: What the engine is called with: ``(query, collection)``, or
    #: ``(template, collection, bindings)`` for a prepared send.
    request: tuple
    streaming: bool
    injector: FaultInjector | None
    policy: RetryPolicy | None
    breaker: CircuitBreaker | None
    deadline: Deadline | None
    token: CancellationToken | None
    #: The tracer the send's spans go to; ``None`` with tracing off.
    tracer: Tracer | None
    dspan: Any
    started: float
    #: The result-cache (and singleflight) key; ``None`` with caching off.
    key: Any = None
    attempts: int = 0
    cache_misses: int = 0
    singleflight_waits: int = 0
    #: Seconds spent in the connector's own admission queue.
    queue_wait: float = 0.0
    #: The admission slot this send holds, and since when.
    ticket: AdmissionTicket | None = None
    admitted_at: float = 0.0
    #: What :meth:`DatabaseConnector._log` recorded; ``None`` until the
    #: send has ended.
    record: SendRecord | None = None

    def release(self, ok: bool) -> None:
        """Return the admission slot, feeding the latency to its controller."""
        if self.ticket is not None:
            self.ticket.release(time.perf_counter() - self.admitted_at, ok=ok)

    def span(self, name: str, **attrs: Any) -> Any:
        """A child span of the send, or the no-op span with tracing off."""
        return NOOP_SPAN if self.tracer is None else self.tracer.span(name, **attrs)


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


def configure_engines(database: Any, **knobs: Any) -> None:
    """Point *database* (or every node of a cluster) at the engine *knobs* given.

    A connector's ``exec_engine=`` / ``memory_budget=`` kwargs, parsed
    like ``REPRO_EXEC`` / ``REPRO_MEM_BUDGET``; a knob left ``None``
    keeps each engine's own setting.
    """
    given = {name: value for name, value in knobs.items() if value is not None}
    config = Config.resolve(**given)
    for engine in _engines_of(database):
        for name in given:
            setattr(engine, name, getattr(config, name))


class DatabaseConnector(abc.ABC):
    """Binds PolyFrame to one query-based database system.

    Subclasses set :attr:`language` (which built-in rule set to load) and
    implement :meth:`_execute`.  ``rule_overrides`` lets callers install
    user-defined rewrites at connection time.

    Every knob that has a ``REPRO_*`` variable is resolved once, here,
    by :meth:`Config.resolve <repro.config.Config.resolve>`: the kwarg
    wins, else the variable, else the default (the README's
    "Configuration" table).  :attr:`config` reports the live settings.

    Resilience knobs (all optional, all public attributes so they can be
    reconfigured after construction):

    - ``retry_policy`` — retry transient failures with backoff.
    - ``timeout`` — per-attempt deadline (:class:`QueryTimeout` or seconds).
    - ``circuit_breaker`` — fail fast while the backend is unhealthy.
    - ``fault_injector`` — chaos hooks for deterministic failure testing.
    - ``deadline`` — an end-to-end per-action budget in seconds
      (:class:`~repro.resilience.Deadline`), ``None`` when off — the
      seed behaviour.  Unlike ``timeout`` the deadline spans *every*
      attempt, backoff sleep, shard, hedge, and streamed batch of one
      action.  See ``docs/deadlines.md``.
    - ``admission`` — overload protection: ``True`` /
      an :class:`~repro.resilience.AdmissionController` (shareable for a
      cluster-wide limit) gates sends through a bounded, deadline-aware,
      AIMD-adaptive admission queue; ``False`` disables.  Shed queries
      raise the retryable :class:`~repro.errors.OverloadError` without
      executing.

    When ``REPRO_FAULT_RATE`` or ``REPRO_NODE_DOWN`` is set, the connector
    builds its own chaos injector and fast retry policy
    (:meth:`Config.chaos <repro.config.Config.chaos>`); a send uses them
    whenever ``fault_injector`` (resp. ``retry_policy``) is ``None`` —
    the CI chaos job runs the whole suite this way.

    Compilation (the logical-plan layer, see ``docs/plan-ir.md``):

    - ``compile_cache`` — this connector's :class:`CompiledQueryCache`.
    - ``compile_log`` — one :class:`~repro.core.plan.compiler.CompileRecord`
      per compilation, in order (the bench layer diffs this like
      ``send_log``).

    Result caching (off by default — seed-identical; see
    ``docs/caching.md``):

    - ``cache`` — ``True``/byte size/:class:`~repro.cache.ResultCache`
      enables semantic result caching on this connector, ``False``
      disables it.  The resolved cache is the public ``result_cache``
      attribute.
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
        config = Config.resolve(
            deadline=deadline,
            admission=admission,
            cache=cache,
        )
        self._config = config
        self._chaos = config.chaos()
        self.deadline = config.deadline
        #: Monotonic clock used for deadlines this connector creates
        #: itself (action roots, per-send budgets); tests inject a fake
        #: clock here for deterministic budget accounting.
        self.deadline_clock = time.monotonic
        self.admission = config.admission_controller(admission, self.name)
        self.compile_cache = CompiledQueryCache()
        self.compile_log: list = []
        self.tracer: Tracer | None = None
        self.result_cache = config.result_cache(cache, self.name)
        self.dataset_versions = DatasetVersions()
        self._singleflight = Singleflight()

    @property
    def config(self) -> Config:
        """The settings this connector and its database run with now.

        Reassigning an attribute (``deadline``, ``admission``,
        ``result_cache``, an engine's ``exec_engine``) shows up here.
        """
        live: dict[str, Any] = {
            "deadline": self.deadline if self.deadline and self.deadline > 0 else None,
            "admission": self.admission is not None,
            "cache": getattr(self.result_cache, "max_bytes", None),
        }
        database = getattr(self, "_db", None)
        for holder in (_engines_of(database)[0], database):
            for name in ("exec_engine", "memory_budget", "replication_factor"):
                if hasattr(holder, name):
                    live[name] = getattr(holder, name)
        if hasattr(database, "dispatcher"):
            live["dispatch"] = database.dispatcher.mode
        return replace(self._config, **live)

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

    def send(
        self,
        query: str,
        collection: str,
        *,
        stream: bool = False,
        prepared: tuple[str, tuple] | None = None,
    ) -> ResultSet:
        """Execute *query* (already rewritten) and return the raw result.

        *prepared* is ``(template, bindings)``: the same query with the
        engine's native placeholders, for an engine that binds them (SQL,
        SQL++, Cypher) and has usually planned the template before.
        *query* stays the text the result cache, the log and errors use.

        Wraps the backend call (:meth:`_execute`) in, outermost first: the
        result-cache probe and singleflight (with caching on), the
        admission gate, and per attempt the cancellation and deadline
        checks, circuit breaker, fault hook, ``timeout`` and retry
        backoff — ``docs/resilience.md`` has the ordered list.  Every
        step reads one :class:`_Send` context, and however the send ends
        :meth:`_log` records it exactly once (:class:`SendRecord`) and
        mirrors the record onto the ``dispatch`` span, whose children
        are ``cache``, ``queue`` and one ``attempt`` per try.

        With ``stream=True`` the result drains lazily from the engine
        (when the backend supports it).  A retry policy then retries
        *opening* the stream; a failure during the drain is not retried.
        The budget is enforced on the drain, at every record boundary —
        for a streamed send a per-attempt ``timeout`` is the budget of
        the whole send, drain included — and a streamed query that runs
        out raises :class:`~repro.errors.QueryTimeoutError` at the next
        boundary.  A streaming send's :class:`SendRecord` carries the
        stats known at dispatch time and is restamped in place once the
        stream is exhausted.
        """
        injector = self.fault_injector
        policy = self.retry_policy
        if injector is None:
            injector, chaos_policy = self._chaos
            if policy is None:
                policy = chaos_policy
        frame = current_frame()
        deadline = frame.deadline
        if deadline is None and self.deadline and self.deadline > 0:
            deadline = Deadline(self.deadline, clock=self.deadline_clock)
        if deadline is None and stream and self.timeout is not None:
            # No end-to-end budget, but a per-attempt timeout: for a
            # streamed attempt "the attempt" is the whole drain, so the
            # timeout becomes the drain deadline.
            deadline = Deadline(self.timeout.seconds, clock=self.deadline_clock)
        cache = self.result_cache
        tracer = tracer_for(self)

        metrics.count("queries_total", self.name)
        dspan = NOOP_SPAN
        if tracer is not None:
            dspan = tracer.span("dispatch", backend=self.name, collection=collection)
        with dspan:
            request = (query, collection)
            if prepared is not None:
                request = (prepared[0], collection, prepared[1])
            s = _Send(
                query, collection, request, stream, injector, policy, self.circuit_breaker,
                deadline, frame.token, tracer, dspan, time.perf_counter(),
            )
            if cache is not None:
                hit = self._probe_cache(s, cache)
                if hit is not None:
                    return hit
            if cache is not None and not stream:
                # Singleflight: concurrent identical sends execute once.
                # The leader runs the attempts (and stores the answer
                # below); followers share it without executing.
                try:
                    waited, result = self._singleflight.run(
                        s.key, lambda: self._run_attempts(s), s.deadline, s.token
                    )
                except BaseException as exc:
                    if s.record is None:
                        # A leader logs its own failure; with nothing
                        # logged this send was a follower, and either its
                        # leader failed or its own budget ran out waiting.
                        s.singleflight_waits = 1
                        cancelled = isinstance(exc, QueryCancelledError)
                        self._log(s, OUTCOME_CANCELLED if cancelled else OUTCOME_ERROR)
                    raise
                if waited:
                    s.singleflight_waits = 1
                    metrics.count("singleflight_waits_total", self.name)
                    return self._serve_shared(
                        s, result, QueryStats(result_cache_misses=1, singleflight_waits=1)
                    )
            else:
                result = self._run_attempts(s)

            result.stats.result_cache_misses += s.cache_misses
            if result.streaming and (
                s.deadline is not None or s.token is not None or s.ticket is not None
            ):
                self._guard_stream(s, result)
            record = self._log(
                s, OUTCOME_PARTIAL if result.partial else OUTCOME_OK, result
            )
            if cache is not None:
                if result.streaming:
                    # Tee the stream into the cache: admitted only if it
                    # drains to completion (never a truncated answer).
                    cache.admit_stream(s.key, result)
                else:
                    cache.store(
                        s.key,
                        result.records,
                        elapsed_seconds=record.real_seconds,
                        plan_text=result.plan_text,
                        partial=result.partial,
                    )
        if logger.isEnabledFor(logging.DEBUG):
            # Counting the rows of a stream would drain it: say it streams.
            rows = "streaming" if result.streaming else f"{len(result.records)} rows"
            logger.debug(
                "%s <- %s (%s, %.2fms, %d attempts)\n%s",
                self.name, collection, rows,
                record.real_seconds * 1000, record.attempts, query,
            )
        return result

    def _log(self, s: _Send, outcome: str, result: ResultSet | None = None) -> SendRecord:
        """The one exit of a send: record it, count it, mirror it on the span.

        Every way a send ends comes through here exactly once, so every
        ``send()`` appends exactly one :class:`SendRecord`.  *result* is
        the answer being returned; without one the send failed (or was
        refused) and the record carries what the context accumulated.
        """
        real = time.perf_counter() - s.started
        if result is None:
            record = SendRecord(
                real,
                0.0,
                attempts=s.attempts,
                outcome=outcome,
                cache_misses=s.cache_misses,
                singleflight_waits=s.singleflight_waits,
                queue_wait_ms=s.queue_wait * 1000.0,
                cancelled=int(outcome == OUTCOME_CANCELLED),
            )
        else:
            if not s.attempts:
                # A shared answer (cache hit, singleflight follower) ran
                # nothing: its engine time is the lookup or the wait.
                result.elapsed_seconds = real
            own = {
                "queue_wait_ms": s.queue_wait * 1000.0,
                "real_seconds": real,
                "reported_seconds": result.elapsed_seconds,
                "attempts": s.attempts,
                "outcome": outcome,
                "deadline_budget_ms": (
                    s.deadline.remaining() * 1000.0 if s.deadline is not None else 0.0
                ),
            }
            record = SendRecord.from_stats(result.stats, **own)
        self.send_log.append(record)
        s.record = record
        if outcome == OUTCOME_ERROR and s.deadline is not None and s.deadline.expired():
            metrics.count("deadline_exceeded_total", self.name)
        metrics.count("retries_total", self.name, record.retries)
        metrics.count("rows_scanned", self.name, record.rows_scanned)
        if result is not None:
            metrics.observe("query_seconds", self.name, real)
            if s.streaming and hasattr(result, "on_drain"):
                # Drain-dependent numbers (rows scanned, memory peaks,
                # spill volume) are only final once the stream is
                # exhausted; restamp the log entry in place then.
                index = len(self.send_log) - 1
                result.on_drain(
                    lambda: self._restamp(s, SendRecord.from_stats(result.stats, **own), index)
                )
        if s.dspan.recording:
            # Counting the rows drains a stream, which restamps `s.record`.
            rows = {"rows": len(result.records)} if result is not None else {}
            s.dspan.set(**rows, **asdict(s.record))
        return s.record

    def _restamp(self, s: _Send, updated: SendRecord, index: int) -> None:
        """Swap a drained stream's final record in for its log entry."""
        record, s.record = s.record, updated
        if index < len(self.send_log) and self.send_log[index] is record:
            self.send_log[index] = updated
        metrics.count(
            "rows_scanned", self.name, updated.rows_scanned - record.rows_scanned
        )

    def _probe_cache(self, s: _Send, cache: ResultCache) -> ResultSet | None:
        """Key the send and probe the result cache; serve and log a hit.

        Under analyze mode a hit carries a synthetic ``ResultCache[hit]``
        operator profile so ``explain(analyze=True)`` shows where the
        answer came from.
        """
        s.key = (
            self.name,
            s.collection,
            s.query,
            self.dataset_versions.vector(s.query, s.collection),
        )
        with s.span("cache", op="lookup") as cspan:
            entry = cache.lookup(s.key)
            cspan.set(outcome="hit" if entry is not None else "miss")
        if entry is None:
            s.cache_misses = 1
            return None
        result = self._serve_shared(s, entry, QueryStats(result_cache_hits=1))
        if analyze_active():
            profile = OpProfile("ResultCache[hit]")
            profile.rows_out = len(result.records)
            profile.time_ns = int(result.elapsed_seconds * 1e9)
            result.op_profile = profile
        return result

    def _serve_shared(self, s: _Send, source: Any, stats: QueryStats) -> ResultSet:
        """Serve and log an answer this send did not execute.

        *source* is a cache entry or a singleflight leader's result.  The
        send never touched the breaker, injector or backend —
        ``attempts == 0`` — and both its real and reported time are the
        lookup, or the wait on the leader.  Records are shared with the
        source (a fresh list, the same record objects); *stats* are the
        send's own.
        """
        result = ResultSet(
            records=list(source.records), stats=stats, plan_text=source.plan_text
        )
        if isinstance(source, ResultSet):
            # A leader's answer may be degraded; a cache entry never is.
            result.partial = source.partial
            result.shard_attempts = source.shard_attempts
            result.served_by = source.served_by
        self._log(s, OUTCOME_PARTIAL if result.partial else OUTCOME_OK, result)
        return result

    def _run_attempts(self, s: _Send) -> ResultSet:
        """Admit the send, then try the backend until an attempt answers.

        Every failing way out logs the send before raising.  A streaming
        answer keeps its admission slot (``s.ticket``) until the stream
        drains or is closed, not just until dispatch returns;
        :meth:`_guard_stream` returns it.
        """
        self._admit(s)
        ok = False
        result: ResultSet | None = None
        try:
            while True:
                if s.token is not None and s.token.cancelled:
                    self._log(s, OUTCOME_CANCELLED)
                    s.token.check(where=f"{self.name} dispatch")
                if s.deadline is not None and s.deadline.expired():
                    # Eager: an attempt that starts with no budget left
                    # cannot finish in time, so fail now instead.
                    self._log(s, OUTCOME_ERROR)
                    s.deadline.check(backend=self.name, query=s.query)
                if s.breaker is not None:
                    try:
                        s.breaker.allow()
                    except CircuitOpenError:
                        metrics.count("circuit_rejections_total", self.name)
                        self._log(s, OUTCOME_REJECTED)
                        raise
                s.attempts += 1
                attempt_started = time.perf_counter()
                with s.span("attempt", number=s.attempts) as aspan:
                    try:
                        if s.injector is not None:
                            s.injector.before_request(self.name)
                        if s.streaming:
                            # Only the open happens here; the budget is
                            # checked per record on the drain, where the
                            # work actually happens.
                            result = self._execute_stream(*s.request)
                        else:
                            result = self._execute(*s.request)
                            if self.timeout is not None:
                                self.timeout.check(
                                    time.perf_counter() - attempt_started,
                                    backend=self.name,
                                    query=s.query,
                                )
                            if s.deadline is not None:
                                s.deadline.check(backend=self.name, query=s.query)
                    except Exception as exc:
                        if s.breaker is not None:
                            s.breaker.record_failure()
                        if s.policy is not None and s.policy.should_retry(exc, s.attempts):
                            aspan.set(
                                error=f"{type(exc).__name__}: {exc}", retried=True
                            )
                            logger.debug(
                                "%s attempt %d failed (%s); retrying",
                                self.name, s.attempts, exc,
                            )
                            # Clamped: if the budget runs out during the
                            # backoff, the next loop iteration fails
                            # eagerly instead of launching the attempt.
                            s.policy.wait(s.attempts, deadline=s.deadline)
                            continue
                        self._log(s, OUTCOME_ERROR)
                        raise
                    break
            ok = True
        finally:
            if not (ok and result.streaming):
                s.release(ok)
        if s.breaker is not None:
            s.breaker.record_success()
        return result

    def _admit(self, s: _Send) -> None:
        """Gate the send through the admission controller, if configured.

        A shed query is logged with outcome ``'shed'`` and raises the
        retryable :class:`~repro.errors.OverloadError` without ever
        touching the breaker, injector, or backend; a queued query whose
        deadline expires while waiting raises
        :class:`~repro.errors.QueryTimeoutError` the same way.
        """
        if self.admission is None:
            return
        with s.span("queue", backend=self.name) as qspan:
            try:
                s.ticket = self.admission.acquire(s.deadline)
            except OverloadError:
                qspan.set(outcome="shed")
                self._log(s, OUTCOME_SHED)
                raise
            except QueryTimeoutError:
                qspan.set(outcome="timeout")
                self._log(s, OUTCOME_ERROR)
                raise
            s.queue_wait = s.ticket.queue_wait_seconds
            s.admitted_at = time.perf_counter()
            qspan.set(queue_wait_ms=s.queue_wait * 1000.0)

    def _guard_stream(self, s: _Send, result: ResultSet) -> None:
        """Enforce deadline/cancellation on a stream at record boundaries.

        Wraps the streaming result's source so every record boundary
        checks the budget (see :meth:`send`) instead of draining to
        completion, or hanging; a cancelled drain stops with
        :class:`~repro.errors.QueryCancelledError`.  The admission slot
        of a streamed query is returned when the stream drains, fails,
        or is closed.
        """
        deadline, token = s.deadline, s.token

        def guarded(source: Iterator[Any]) -> Iterator[Any]:
            drained_ok = False
            try:
                for record in source:
                    if token is not None and token.cancelled:
                        result.stats.cancelled += 1
                        token.check(where=f"{self.name} stream drain")
                    if deadline is not None and deadline.expired():
                        metrics.count("deadline_exceeded_total", self.name)
                        deadline.check(
                            backend=self.name, query=s.query, where="stream drain"
                        )
                    yield record
                drained_ok = True
            finally:
                s.release(drained_ok)

        result.wrap_source(guarded)

    @abc.abstractmethod
    def _execute(self, query: str, collection: str) -> ResultSet:
        """Backend-specific execution of an already-rewritten query
        (or, with a ``parameter`` rule, of a template and its bindings)."""

    def _execute_stream(self, query: str, collection: str, *bindings: tuple) -> ResultSet:
        """Execute with a lazily-draining result when the engine can.

        The default materializes via :meth:`_execute` — the documented
        fallback for backends without pull-based execution.  Backends
        whose engine takes ``stream=True`` override this.
        """
        return self._execute(query, collection, *bindings)

    def send_stream(
        self,
        query: str,
        collection: str,
        batch_size: int = DEFAULT_BATCH_SIZE,
        *,
        prepared: tuple[str, tuple] | None = None,
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
        return self._batches(query, collection, batch_size, prepared)

    def _batches(
        self, query: str, collection: str, batch_size: int, prepared: tuple[str, tuple] | None
    ) -> Iterator[list[Any]]:
        result = self.send(query, collection, stream=True, prepared=prepared)
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

        The honest per-language measure the bench layer uses: for
        SQL-shaped languages it is the number of nested ``(SELECT``
        subqueries plus the outer query.  Pipeline and clause
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
