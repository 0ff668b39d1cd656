"""Adaptive admission control: bounded queueing and AIMD concurrency limits.

When offered load exceeds capacity, an unprotected system does not slow
down gracefully — it collapses: every query queues behind every other
query, latency grows without bound, and by the time a query runs its
caller stopped waiting long ago.  An :class:`AdmissionController` sheds
load instead:

- **Bounded wait queue** — at most ``max_queue`` queries may wait for a
  slot; one more is rejected immediately with
  :class:`~repro.errors.OverloadError` (retryable, carrying a
  ``retry_after`` pacing hint) rather than joining a line it cannot
  clear.
- **Deadline-aware admission** — a query whose estimated queue wait
  already exceeds its remaining deadline budget is rejected up front:
  making it wait would burn coordinator capacity producing a guaranteed
  :class:`~repro.errors.QueryTimeoutError`.
- **AIMD concurrency limit** — the number of concurrently admitted
  queries is capped by a limit that adapts to observed latency: while
  completions stay near the EWMA baseline the limit creeps up
  (additive increase); a completion slower than
  ``degrade_multiplier ×`` baseline knocks it down
  (multiplicative decrease).  The classic TCP-style control loop, which
  finds the concurrency the backend can sustain without being told.

Admission is **off by default** (seed-identical).  Opt in per
connector/cluster with ``admission=True`` (or a configured
:class:`AdmissionController`, shareable across connectors for a
cluster-wide limit) or process-wide with ``REPRO_ADMISSION=1``
(:mod:`repro.config`).

Observability: ``queries_shed_total`` counts rejections,
``inflight`` / ``queue_depth`` gauges track the controller's state, and
every admitted query's ``queue_wait_ms`` flows through
``QueryStats``/``SendRecord``/bench ``Measurement``.  See
``docs/deadlines.md``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import OverloadError, QueryTimeoutError
from repro.obs import metrics
from repro.resilience.deadline import Deadline

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
]

#: Defaults sized for the embedded engines: generous enough that the
#: tier-1 suite (sequential queries, inflight 1) never queues, tight
#: enough that a 4x overload benchmark sheds within one latency EWMA.
DEFAULT_INITIAL_LIMIT = 8
DEFAULT_MIN_LIMIT = 1
DEFAULT_MAX_LIMIT = 64
DEFAULT_MAX_QUEUE = 32
DEFAULT_DEGRADE_MULTIPLIER = 3.0
DEFAULT_EWMA_ALPHA = 0.2
DEFAULT_DECREASE_FACTOR = 0.7


class AdmissionTicket:
    """Proof of admission for one query; must be released exactly once."""

    __slots__ = ("queue_wait_seconds", "_controller", "_released")

    def __init__(self, controller: "AdmissionController", queue_wait_seconds: float) -> None:
        self._controller = controller
        self._released = False
        self.queue_wait_seconds = queue_wait_seconds

    def release(self, latency_seconds: float, *, ok: bool = True) -> None:
        """Return the slot and feed the completion into the AIMD loop."""
        if not self._released:
            self._released = True
            self._controller._release(latency_seconds, ok=ok)


class AdmissionController:
    """Bounded, deadline-aware, latency-adaptive admission for one backend.

    Thread-safe; one instance per connector/cluster (or shared between
    them for a cluster-wide limit).  The clock is injectable for
    deterministic tests — it is only used to measure queue wait.
    """

    def __init__(
        self,
        *,
        initial_limit: int = DEFAULT_INITIAL_LIMIT,
        min_limit: int = DEFAULT_MIN_LIMIT,
        max_limit: int = DEFAULT_MAX_LIMIT,
        max_queue: int = DEFAULT_MAX_QUEUE,
        degrade_multiplier: float = DEFAULT_DEGRADE_MULTIPLIER,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        decrease_factor: float = DEFAULT_DECREASE_FACTOR,
        backend: str = "",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if min_limit < 1:
            raise ValueError(f"min_limit must be >= 1, got {min_limit}")
        if not min_limit <= initial_limit <= max_limit:
            raise ValueError(
                f"need min_limit <= initial_limit <= max_limit, got "
                f"{min_limit}/{initial_limit}/{max_limit}"
            )
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if degrade_multiplier <= 1.0:
            raise ValueError(
                f"degrade_multiplier must be > 1, got {degrade_multiplier}"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if not 0.0 < decrease_factor < 1.0:
            raise ValueError(
                f"decrease_factor must be in (0, 1), got {decrease_factor}"
            )
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.max_queue = max_queue
        self.degrade_multiplier = degrade_multiplier
        self.ewma_alpha = ewma_alpha
        self.decrease_factor = decrease_factor
        self.backend = backend
        self._clock = clock
        self._limit = float(initial_limit)
        self._inflight = 0
        self._queued = 0
        self._ewma_latency: float | None = None
        self._shed = 0
        self._admitted = 0
        self._cond = threading.Condition(threading.Lock())

    # ------------------------------------------------------------------
    # Introspection (tests, metrics, retry_after estimates)
    # ------------------------------------------------------------------
    @property
    def limit(self) -> int:
        """The current AIMD concurrency limit (floor of the float state)."""
        return max(self.min_limit, int(self._limit))

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def queue_depth(self) -> int:
        return self._queued

    @property
    def ewma_latency(self) -> float | None:
        return self._ewma_latency

    def stats(self) -> dict[str, float | int]:
        """Point-in-time controller state (shape shared with cache stats)."""
        return {
            "limit": self.limit,
            "inflight": self._inflight,
            "queue_depth": self._queued,
            "admitted": self._admitted,
            "shed": self._shed,
            "ewma_latency": self._ewma_latency or 0.0,
        }

    def _estimated_wait(self, position: int) -> float:
        """Expected queue wait for a query *position*-th in line.

        Each wave of ``limit`` inflight queries takes ~one EWMA latency
        to clear; a cold controller (no samples yet) estimates zero and
        relies on the bounded queue alone.
        """
        if self._ewma_latency is None:
            return 0.0
        waves = (self._inflight - self.limit + position + 1) / self.limit
        return max(0.0, waves) * self._ewma_latency

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------
    def acquire(self, deadline: Deadline | None = None) -> AdmissionTicket:
        """Admit this query, queueing (bounded) if at the limit.

        Raises :class:`OverloadError` immediately when the queue is full
        or the estimated wait exceeds the remaining deadline budget, and
        :class:`QueryTimeoutError` if the deadline expires while queued.
        """
        started = self._clock()
        with self._cond:
            if self._inflight < self.limit and self._queued == 0:
                self._inflight += 1
                self._admitted += 1
                self._sync_gauges()
                return AdmissionTicket(self, 0.0)
            if self._queued >= self.max_queue:
                self._shed += 1
                self._count_shed("queue_full")
                raise OverloadError(
                    f"{self._name()} wait queue is full "
                    f"({self._queued} waiting, limit {self.limit}, "
                    f"{self._inflight} in flight)",
                    retry_after=self._estimated_wait(self._queued),
                )
            estimated = self._estimated_wait(self._queued)
            if deadline is not None and estimated > deadline.remaining():
                self._shed += 1
                self._count_shed("deadline")
                raise OverloadError(
                    f"{self._name()} estimated queue wait {estimated:.3f}s "
                    f"exceeds the remaining deadline budget "
                    f"{deadline.remaining():.3f}s",
                    retry_after=estimated,
                )
            self._queued += 1
            self._sync_gauges()
            try:
                while not (self._inflight < self.limit):
                    timeout = deadline.remaining() if deadline is not None else None
                    if timeout is not None and timeout <= 0.0:
                        self._shed += 1
                        self._count_shed("deadline")
                        raise QueryTimeoutError(
                            f"deadline expired after "
                            f"{self._clock() - started:.3f}s in the "
                            f"{self._name()} admission queue"
                        )
                    self._cond.wait(timeout)
            finally:
                self._queued -= 1
                self._sync_gauges()
            self._inflight += 1
            self._admitted += 1
            self._sync_gauges()
            return AdmissionTicket(self, self._clock() - started)

    def _release(self, latency_seconds: float, *, ok: bool) -> None:
        with self._cond:
            self._inflight = max(0, self._inflight - 1)
            if ok and latency_seconds >= 0.0:
                baseline = self._ewma_latency
                if baseline is None:
                    self._ewma_latency = latency_seconds
                elif latency_seconds > self.degrade_multiplier * baseline:
                    # The backend is slower than its own recent history:
                    # multiplicative decrease, and fold the sample in so
                    # the baseline tracks the new (degraded) normal only
                    # slowly.
                    self._limit = max(
                        float(self.min_limit), self._limit * self.decrease_factor
                    )
                    self._ewma_latency = (
                        self.ewma_alpha * latency_seconds
                        + (1.0 - self.ewma_alpha) * baseline
                    )
                else:
                    # Healthy completion: additive increase, fractional so
                    # the limit grows by ~1 per limit completions (AIMD).
                    self._limit = min(
                        float(self.max_limit), self._limit + 1.0 / max(1.0, self._limit)
                    )
                    self._ewma_latency = (
                        self.ewma_alpha * latency_seconds
                        + (1.0 - self.ewma_alpha) * baseline
                    )
            self._sync_gauges()
            self._cond.notify()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _name(self) -> str:
        return self.backend or "backend"

    def _count_shed(self, reason: str) -> None:
        metrics.count("queries_shed_total", self.backend)
        metrics.counter("queries_shed_total", reason=reason).inc()

    def _sync_gauges(self) -> None:
        if self.backend:
            metrics.gauge("inflight", backend=self.backend).set(self._inflight)
            metrics.gauge("queue_depth", backend=self.backend).set(self._queued)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdmissionController(limit={self.limit}, inflight={self._inflight}, "
            f"queued={self._queued}, backend={self.backend!r})"
        )
