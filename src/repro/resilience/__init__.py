"""Resilient query dispatch: faults, retries, timeouts, circuit breaking.

PolyFrame's value proposition is shipping queries to remote database
backends, and remote backends fail: connections blip, shards restart,
queries stall.  This package gives the dispatch layer the machinery to
tolerate that — deterministically testable because every random choice
comes from an owned, seeded RNG:

- :class:`FaultInjector` / :class:`FaultRule` — seeded chaos hooks that
  make any embedded engine raise transient errors, add latency, or take a
  backend/shard down (per-backend, per-request-count, or by rate).
- :class:`RetryPolicy` — bounded retries with exponential backoff and
  seeded jitter; classifies which errors are worth retrying.
- :class:`QueryTimeout` — a per-attempt deadline raising
  :class:`~repro.errors.QueryTimeoutError`.
- :class:`CircuitBreaker` — per-backend closed → open → half-open gate
  that fails fast with :class:`~repro.errors.CircuitOpenError` while a
  backend is persistently unhealthy.
- :class:`Deadline` / :class:`CancellationToken` — an end-to-end
  monotonic budget for one dataframe action, propagated ambiently
  (:func:`budget_scope`) through retries, shards, hedges, and streaming,
  plus cooperative cancellation of work nobody will read.
- :class:`AdmissionController` — bounded, deadline-aware wait queue with
  an AIMD adaptive concurrency limit; sheds load with
  :class:`~repro.errors.OverloadError` instead of collapsing.

See ``docs/resilience.md`` and ``docs/deadlines.md`` for how these weave
through :meth:`DatabaseConnector.send` and ``scatter_gather``.
"""

from repro.resilience.admission import AdmissionController, AdmissionTicket
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.deadline import (
    BudgetFrame,
    CancellationToken,
    Deadline,
    budget_scope,
    current_deadline,
    current_frame,
    current_token,
    propagated_frame,
)
from repro.resilience.faults import NODE_DOWN, SLOW_NODE, FaultInjector, FaultRule
from repro.resilience.retry import DEFAULT_RETRYABLE, QueryTimeout, RetryPolicy, no_sleep

__all__ = [
    "CLOSED",
    "DEFAULT_RETRYABLE",
    "HALF_OPEN",
    "NODE_DOWN",
    "OPEN",
    "SLOW_NODE",
    "AdmissionController",
    "AdmissionTicket",
    "BudgetFrame",
    "CancellationToken",
    "CircuitBreaker",
    "Deadline",
    "FaultInjector",
    "FaultRule",
    "QueryTimeout",
    "RetryPolicy",
    "budget_scope",
    "current_deadline",
    "current_frame",
    "current_token",
    "no_sleep",
    "propagated_frame",
]
