"""End-to-end query deadlines and cooperative cancellation.

A :class:`Deadline` is a *total* wall-clock budget for one dataframe
action, measured on a monotonic clock (injectable for deterministic
tests).  Unlike the per-attempt :class:`~repro.resilience.retry.QueryTimeout`
— which only fires after an attempt has already burned the wall clock —
a deadline is consulted *before* work starts: retry backoff sleeps are
clamped to the remaining budget, an attempt that cannot possibly finish
is never launched (:class:`~repro.errors.QueryTimeoutError` raises
eagerly), hedges are suppressed when no budget remains, and streaming
results check the deadline at batch boundaries instead of bypassing it.

A :class:`CancellationToken` travels alongside the deadline.  It is a
cooperative stop signal: the first fatal shard error (or a consumer
closing a streaming result) cancels the token, and sibling in-flight
shard work — including losing hedge legs under the thread dispatcher —
observes it at batch boundaries and stops early with
:class:`~repro.errors.QueryCancelledError` instead of finishing work
nobody will read.  Cancellation is *not* a failure of the query: the
coordinator reports the original error (or the winning result) and
counts the abandoned work as ``cancelled``.

Propagation is ambient: the action root (or the first ``send``) installs
a :class:`BudgetFrame` on the current thread with :func:`budget_scope`,
and every layer below reads it through :func:`current_deadline` /
:func:`current_token` without signature changes.  The shard dispatchers
capture the submitting thread's frame (:func:`current_frame`) and
re-establish it on their workers (:func:`propagated_frame`), exactly
like trace-span context.  See ``docs/deadlines.md``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.obs.trace import tracer_for

__all__ = [
    "BudgetFrame",
    "CancellationToken",
    "Deadline",
    "action_scope",
    "budget_scope",
    "current_deadline",
    "current_frame",
    "current_token",
    "propagated_frame",
]


class Deadline:
    """A fixed point on the monotonic clock by which a query must finish.

    Created once at the action root and shared by reference down the
    whole dispatch tree, so every layer subtracts from the *same* budget.
    The clock is injectable: tests pass a fake monotonic clock and drive
    it forward deterministically (the fault injector's ``sleep`` hook can
    be the clock's ``advance``, so simulated latency consumes simulated
    budget without wall-clock cost).
    """

    __slots__ = ("seconds", "_clock", "_expires_at")

    def __init__(
        self, seconds: float, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self.seconds = seconds
        self._clock = clock
        self._expires_at = clock() + seconds

    def remaining(self) -> float:
        """Budget left, in seconds; never below zero."""
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def clamp(self, delay: float) -> float:
        """*delay* shortened so it cannot sleep past the deadline."""
        return max(0.0, min(delay, self.remaining()))

    def check(self, *, backend: str = "", query: str = "", where: str = "") -> None:
        """Raise :class:`QueryTimeoutError` if the budget is exhausted."""
        if self.expired():
            on = f" on {backend}" if backend else ""
            at = f" at {where}" if where else ""
            tail = f": {query[:120]}" if query else ""
            raise QueryTimeoutError(
                f"query{on} exceeded its {self.seconds:.3f}s deadline{at}{tail}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline({self.seconds}, remaining={self.remaining():.3f})"


class CancellationToken:
    """A one-way cooperative stop signal.

    Tokens form a chain: a child created with ``parent=`` observes its
    parent's cancellation (a cancelled action cancels every gather under
    it) while cancelling the child alone — one shard gather, one hedge
    leg — never propagates upward.  Nothing blocks on a token, so it is
    a plain flag, set once (atomic under the GIL).
    """

    __slots__ = ("_set", "_reason", "_parent")

    def __init__(self, parent: "CancellationToken | None" = None) -> None:
        self._set = False
        self._reason = ""
        self._parent = parent

    @property
    def cancelled(self) -> bool:
        if self._set:
            return True
        return self._parent.cancelled if self._parent is not None else False

    @property
    def reason(self) -> str:
        if self._set:
            return self._reason
        return self._parent.reason if self._parent is not None else ""

    def cancel(self, reason: str = "") -> None:
        """Signal cancellation (idempotent; the first reason sticks)."""
        if not self._set:
            self._reason = reason or self._reason
            self._set = True

    def check(self, *, where: str = "") -> None:
        """Raise :class:`QueryCancelledError` if cancellation was signalled."""
        if self.cancelled:
            at = f" at {where}" if where else ""
            why = self.reason
            tail = f": {why}" if why else ""
            raise QueryCancelledError(f"query cancelled{at}{tail}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CancellationToken(cancelled={self.cancelled})"


class BudgetFrame:
    """The (deadline, cancellation token) pair ambient on one thread."""

    __slots__ = ("deadline", "token")

    def __init__(
        self,
        deadline: Deadline | None = None,
        token: CancellationToken | None = None,
    ) -> None:
        self.deadline = deadline
        self.token = token

    def child(self, token: CancellationToken) -> "BudgetFrame":
        """The same deadline with a narrower cancellation scope."""
        return BudgetFrame(self.deadline, token)


_EMPTY_FRAME = BudgetFrame()
_local = threading.local()


def current_frame() -> BudgetFrame:
    """The ambient budget frame of this thread (empty when none set)."""
    return getattr(_local, "frame", _EMPTY_FRAME)


def current_deadline() -> Deadline | None:
    """The deadline governing work on this thread, if any."""
    return current_frame().deadline


def current_token() -> CancellationToken | None:
    """The cancellation token governing work on this thread, if any."""
    return current_frame().token


def budget_scope(
    deadline: Deadline | None = None,
    token: CancellationToken | None = None,
) -> "propagated_frame":
    """Install a budget frame on this thread for the duration of the block.

    ``None`` fields inherit from the enclosing frame, so a gather can
    narrow the cancellation scope while keeping the action's deadline.
    """
    outer = current_frame()
    return propagated_frame(BudgetFrame(
        deadline if deadline is not None else outer.deadline,
        token if token is not None else outer.token,
    ))


class propagated_frame:
    """Re-establish a captured budget frame on a worker thread.

    The dispatcher-side counterpart of
    :func:`~repro.obs.trace.propagated_context`: shard tasks and hedge
    legs run under the submitting thread's deadline and token no matter
    which thread executes them.
    """

    __slots__ = ("_frame", "_outer")

    def __init__(self, frame: BudgetFrame) -> None:
        self._frame = frame

    def __enter__(self) -> BudgetFrame:
        self._outer = current_frame()
        _local.frame = self._frame
        return self._frame

    def __exit__(self, *exc_info: object) -> None:
        _local.frame = self._outer


class action_scope(propagated_frame):
    """The root budget frame — and, when tracing, the root ``action`` span —
    of one PolyFrame action.

    Entered by every dataframe/series action: creates the action's
    :class:`Deadline` (from the connector's ``deadline`` attribute —
    ``None`` when it is off, the seed default) and a fresh
    :class:`CancellationToken`, so a multi-query action spends *one*
    budget across all of its sends and every gather below it can hang
    child tokens off the action's.  A nested action that already runs
    under a frame with a deadline shares the outer budget instead of
    resetting the clock.  Given an *op*, the span is opened inside the
    frame with the connector's tracer; with tracing off there is none.
    """

    __slots__ = ("_span",)

    def __init__(self, connector: Any, op: str = "", collection: str = "") -> None:
        outer = current_frame()
        frame = outer
        if outer.deadline is None:
            seconds = getattr(connector, "deadline", None)
            deadline: Deadline | None = None
            if seconds and seconds > 0:
                clock = getattr(connector, "deadline_clock", None) or time.monotonic
                deadline = Deadline(seconds, clock=clock)
            frame = BudgetFrame(deadline, CancellationToken(parent=outer.token))
        super().__init__(frame)
        tracer = tracer_for(connector) if op else None
        self._span = None if tracer is None else tracer.span(
            "action", op=op, backend=connector.name, collection=collection
        )

    def __enter__(self) -> BudgetFrame:
        frame = super().__enter__()
        if self._span is not None:
            self._span.__enter__()
        return frame

    def __exit__(self, *exc_info: object) -> None:
        try:
            if self._span is not None:
                self._span.__exit__(*exc_info)
        finally:
            super().__exit__()
