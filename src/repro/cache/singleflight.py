"""In-flight query deduplication (the "singleflight" pattern).

When N threads issue the same cacheable query at the same time — a
thundering herd on a cold cache — executing it N times wastes N-1
backend round trips and caches nothing extra.  :class:`Singleflight`
collapses them: the first caller for a key becomes the *leader* and
executes; the rest block on the leader and share its answer (or its
exception).  Connectors engage it per send when result caching is on,
so the dedup key is exactly the cache key; the thread-dispatched
cluster paths are where concurrent identical sends actually happen.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable

from repro.resilience.deadline import CancellationToken, Deadline

#: How often a follower with a budget wakes to check it: a token has no
#: wait of its own, and an injected deadline clock does not move with the
#: wall clock, so sleeping out ``deadline.remaining()`` is not an option.
_POLL_SECONDS = 0.01


class _Flight:
    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None


class Singleflight:
    """Per-key in-flight call deduplication across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[Hashable, _Flight] = {}

    def run(
        self,
        key: Hashable,
        fn: Callable[[], Any],
        deadline: Deadline | None = None,
        token: CancellationToken | None = None,
    ) -> tuple[bool, Any]:
        """Run *fn* once per concurrent *key*; followers share the answer.

        Returns ``(waited, value)``: ``waited`` is False for the leader
        (who actually executed *fn*) and True for followers.  If the
        leader raises, every follower re-raises the same exception.  The
        flight is removed before followers wake, so a *later* call with
        the same key starts a fresh flight — this deduplicates concurrent
        calls only, it is not a cache.

        A follower waits no longer than its own budget: once *deadline*
        expires it raises :class:`~repro.errors.QueryTimeoutError`, once
        *token* is cancelled :class:`~repro.errors.QueryCancelledError`;
        the leader carries on undisturbed (its budget is *fn*'s business).
        """
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[key] = flight
        if leader:
            try:
                flight.value = fn()
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._lock:
                    self._flights.pop(key, None)
                flight.event.set()
            return False, flight.value
        bounded = deadline is not None or token is not None
        while not flight.event.wait(_POLL_SECONDS if bounded else None):
            if token is not None:
                token.check(where="singleflight wait")
            if deadline is not None:
                deadline.check(where="singleflight wait")
        if flight.error is not None:
            raise flight.error
        return True, flight.value

    def in_flight(self) -> int:
        """How many distinct keys are currently executing."""
        with self._lock:
            return len(self._flights)
