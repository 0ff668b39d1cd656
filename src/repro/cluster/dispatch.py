"""Pluggable shard dispatchers: how scatter-gather runs its shard tasks.

The cluster layer used to hard-code sequential in-process shard execution
with a simulated parallel wall time (``max`` over shards).  A
:class:`Dispatcher` makes that policy explicit and swappable:

- :class:`SerialDispatcher` preserves the seed's semantics byte-for-byte:
  shard tasks run in order on the calling thread, a failure stops the
  remaining shards, and the coordinator keeps reporting the simulated
  ``max(per-shard elapsed)`` wall time.
- :class:`ThreadPoolDispatcher` runs shard tasks truly concurrently on a
  bounded worker pool, reports *measured* wall time, and turns a
  fixed-threshold replica hedge from a post-hoc simulation into a real
  race (:meth:`Dispatcher.race`).

Selection: every cluster takes a ``dispatch=`` keyword (a mode string or
a ready dispatcher instance); without one, the ``REPRO_DISPATCH``
environment variable decides (``serial`` by default; :mod:`repro.config`)
and :data:`DISPATCHERS` builds the mode's dispatcher.

Span context does not cross threads on its own (the span stack is
thread-local), so both the worker-pool map and the hedge race capture the
submitting thread's innermost span with
:func:`~repro.obs.trace.current_context` and re-establish it on the
worker via :func:`~repro.obs.trace.propagated_context` — shard spans nest
under the action root no matter where they run.  The query's budget frame
(deadline + cancellation token, ``repro.resilience.deadline``) crosses
threads the same way: workers run under the submitting thread's deadline,
streaming producers stop between records once the gather is cancelled,
and a hedge race cancels its losing leg instead of letting it run to
completion.  See ``docs/distributed-execution.md`` and
``docs/deadlines.md``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import QueryCancelledError, ReproError
from repro.obs.trace import current_context, propagated_context
from repro.resilience.deadline import (
    CancellationToken,
    current_frame as current_budget,
    propagated_frame,
)

__all__ = [
    "DISPATCHERS",
    "SERIAL",
    "THREADS",
    "DEFAULT_MAX_WORKERS",
    "DEFAULT_STREAM_QUEUE_SIZE",
    "Dispatcher",
    "RaceResult",
    "SerialDispatcher",
    "ThreadPoolDispatcher",
]

SERIAL = "serial"
THREADS = "threads"

#: Worker-pool bound: shard counts in the paper's experiments are 1-4, so
#: a small fixed pool keeps thread usage predictable even when many
#: clusters (or many client threads) dispatch at once.
DEFAULT_MAX_WORKERS = 8

#: Bound of each per-shard streaming queue: how many records a shard may
#: run ahead of the coordinator's merge before its producer blocks
#: (backpressure).  Small enough that a slow consumer caps per-shard
#: buffering, large enough to amortize queue handoffs.
DEFAULT_STREAM_QUEUE_SIZE = 256


class RaceResult:
    """Outcome of one hedged race (:meth:`Dispatcher.race`).

    ``primary`` is the primary attempt's return value.  ``hedged`` is True
    when the hedge budget expired and the hedge callable ran;
    ``hedge_value`` is then its return value (which may itself be ``None``
    when the hedge found nothing to do).  ``primary_first`` says which
    finished first in real time — the winner of the race.
    """

    __slots__ = ("primary", "hedged", "hedge_value", "primary_first")

    def __init__(
        self,
        primary: Any,
        hedged: bool = False,
        hedge_value: Any = None,
        primary_first: bool = True,
    ) -> None:
        self.primary = primary
        self.hedged = hedged
        self.hedge_value = hedge_value
        self.primary_first = primary_first


class Dispatcher:
    """How a coordinator runs one query's per-shard tasks.

    ``mode`` names the policy (surfaced in ``QueryStats.dispatch_mode``),
    and ``real_time`` says whether the coordinator should report measured
    dispatch wall time (thread mode) or keep the seed's simulated
    ``max(per-shard elapsed)`` model (serial).
    """

    mode: str = SERIAL
    real_time: bool = False

    def parallelism_for(self, num_tasks: int) -> int:
        """How many of *num_tasks* can run at once under this dispatcher."""
        return 1

    def map_shards(self, tasks: Sequence[Callable[[], Any]]) -> list[Any]:
        """Run every task and return their results in task order."""
        raise NotImplementedError

    def stream_shards(
        self,
        sources: Sequence[Iterable[Any]],
        *,
        queue_size: int = DEFAULT_STREAM_QUEUE_SIZE,
    ) -> list[Iterator[Any]]:
        """Per-shard record iterators draining *sources*.

        The base (serial) behaviour is pass-through: each shard's records
        pull lazily on the consuming thread when its iterator is drained.
        Real-time dispatchers override this to drain shards concurrently
        through bounded per-shard queues (backpressure).
        """
        return [iter(source) for source in sources]

    def race(
        self,
        primary: Callable[[], Any],
        hedge: Callable[[], Any],
        threshold_seconds: float,
    ) -> RaceResult:
        """Run *primary*, launching *hedge* if it is still unfinished after
        *threshold_seconds* — first real finisher wins.

        The base (serial) behaviour runs *primary* inline and never
        launches the hedge on the wall clock (``hedged=False``): the
        coordinator then judges the hedge post-hoc from effective times.
        """
        return RaceResult(primary())


class SerialDispatcher(Dispatcher):
    """The seed's semantics: shards run sequentially on the calling thread.

    A task that raises stops the remaining shards immediately (exactly the
    pre-refactor control flow), and the coordinator keeps simulating the
    parallel wall time as ``max(per-shard elapsed)``.
    """

    mode = SERIAL

    def map_shards(self, tasks: Sequence[Callable[[], Any]]) -> list[Any]:
        return [task() for task in tasks]


class ThreadPoolDispatcher(Dispatcher):
    """Real concurrent shard execution on a bounded worker pool.

    All shard tasks are launched; results are collected in shard order.
    When tasks fail, the lowest-indexed shard's exception is re-raised
    after every task has finished, so error reporting is deterministic
    regardless of thread scheduling.  The pool is created lazily and
    reused across queries (and across client threads sharing a cluster).
    """

    mode = THREADS
    real_time = True

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ReproError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or DEFAULT_MAX_WORKERS
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def parallelism_for(self, num_tasks: int) -> int:
        return max(1, min(num_tasks, self.max_workers))

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix="repro-shard",
                    )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (tests / explicit cleanup)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def map_shards(self, tasks: Sequence[Callable[[], Any]]) -> list[Any]:
        tasks = list(tasks)
        if len(tasks) <= 1:
            return [task() for task in tasks]
        frame = current_context()
        budget = current_budget()

        def run(task: Callable[[], Any]) -> Any:
            with propagated_context(frame), propagated_frame(budget):
                return task()

        futures = [self._executor().submit(run, task) for task in tasks]
        results: list[Any] = []
        first_error: BaseException | None = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                # Deterministic error reporting: the lowest-indexed
                # shard's error wins — but a sibling that stopped because
                # the gather was *cancelled* is a consequence, not the
                # cause, so any real error beats a cancellation.
                if first_error is None or (
                    isinstance(first_error, QueryCancelledError)
                    and not isinstance(exc, QueryCancelledError)
                ):
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def stream_shards(
        self,
        sources: Sequence[Iterable[Any]],
        *,
        queue_size: int = DEFAULT_STREAM_QUEUE_SIZE,
    ) -> list[Iterator[Any]]:
        """Drain every shard concurrently through bounded per-shard queues.

        One producer per shard runs on the worker pool, pushing records
        into a ``queue.Queue(maxsize=queue_size)``; when the coordinator's
        merge falls behind, the queue fills and the producer blocks —
        backpressure, so no shard can run unboundedly ahead of the
        consumer.  A producer that raises forwards its exception through
        the queue and the shard's iterator re-raises it at the consumer.
        Consumers never block on the pool (producers only ever wait on
        their own queue), so a fully busy pool delays but cannot deadlock
        a streaming merge.
        """
        if queue_size < 1:
            raise ReproError(f"queue_size must be >= 1, got {queue_size}")
        sources = list(sources)
        if len(sources) <= 1:
            return [iter(source) for source in sources]
        frame = current_context()
        budget = current_budget()
        token = budget.token

        def produce(
            source: Iterable[Any],
            sink: queue.Queue,
            closed: threading.Event,
            finished: threading.Event,
        ) -> None:
            with propagated_context(frame), propagated_frame(budget):
                try:
                    completed = True
                    for record in source:
                        # Record boundary: a closed consumer or a
                        # cancelled gather stops this producer here,
                        # mid-stream, instead of draining the shard.
                        if closed.is_set() or (
                            token is not None and token.cancelled
                        ):
                            completed = False
                            break
                        sink.put(("record", record))
                    if completed:
                        sink.put(("done", None))
                except BaseException as exc:  # noqa: BLE001 - re-raised by consumer
                    sink.put(("error", exc))
                finally:
                    # Close the shard pipeline on this thread so budget
                    # release and stats stamping happen before the
                    # consumer's close returns (it waits on *finished*).
                    close = getattr(source, "close", None)
                    if close is not None:
                        close()
                    finished.set()

        def consume(
            sink: queue.Queue, closed: threading.Event, finished: threading.Event
        ) -> Iterator[Any]:
            try:
                while True:
                    kind, value = sink.get()
                    if kind == "record":
                        yield value
                    elif kind == "error":
                        raise value
                    else:
                        return
            finally:
                # An abandoned consumer (LIMIT satisfied mid-merge, or an
                # error in another shard) must not strand its producer on
                # a full queue: flag the stream closed, then drain once so
                # a blocked put completes — the producer sees the flag on
                # its next record and exits without a sentinel.  Then wait
                # for its cleanup; shard counts (1-4) never exceed the
                # pool, so every producer is already running and the wait
                # is effectively instant.
                closed.set()
                while True:
                    try:
                        sink.get_nowait()
                    except queue.Empty:
                        break
                finished.wait(timeout=5.0)

        consumers: list[Iterator[Any]] = []
        for source in sources:
            sink: queue.Queue = queue.Queue(maxsize=queue_size)
            closed = threading.Event()
            finished = threading.Event()
            self._executor().submit(produce, source, sink, closed, finished)
            consumers.append(consume(sink, closed, finished))
        return consumers

    def race(
        self,
        primary: Callable[[], Any],
        hedge: Callable[[], Any],
        threshold_seconds: float,
    ) -> RaceResult:
        """A real hedge race: primary on a helper thread, hedge on this one.

        The hedge launches only if the primary is still running once the
        threshold expires.  Completion order is measured with the
        monotonic clock; ties go to the primary.  Raw threads (not the
        shard pool) run the primary so a fully busy pool can never
        deadlock a race.

        The losing leg is cooperatively cancelled: the primary runs
        under its own child :class:`CancellationToken`, and once the
        hedge has finished while the primary is still running, that
        token is cancelled so the primary stops at its next batch
        boundary instead of burning a worker to compute an answer nobody
        will read.  A primary that stops this way
        (:class:`~repro.errors.QueryCancelledError`) is reported as
        ``primary=None`` with the hedge's value winning — never as an
        error.
        """
        frame = current_context()
        budget = current_budget()
        primary_token = CancellationToken(parent=budget.token)
        done = threading.Event()
        box: dict[str, Any] = {}

        def run_primary() -> None:
            with propagated_context(frame), propagated_frame(
                budget.child(primary_token)
            ):
                try:
                    box["value"] = primary()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    box["error"] = exc
                finally:
                    box["finished_ns"] = time.perf_counter_ns()
                    done.set()

        worker = threading.Thread(
            target=run_primary, name="repro-hedge-primary", daemon=True
        )
        worker.start()
        hedged = False
        hedge_value: Any = None
        hedge_finished_ns = 0
        if not done.wait(threshold_seconds):
            hedged = True
            hedge_value = hedge()
            hedge_finished_ns = time.perf_counter_ns()
            if not done.is_set():
                # The hedge finished first: the still-running primary
                # lost the race, and its answer can never be used.
                primary_token.cancel("lost hedge race")
        worker.join()
        if "error" in box:
            if hedged and isinstance(box["error"], QueryCancelledError):
                return RaceResult(None, hedged, hedge_value, primary_first=False)
            raise box["error"]
        primary_first = not hedged or box["finished_ns"] <= hedge_finished_ns
        return RaceResult(box["value"], hedged, hedge_value, primary_first)


#: A fresh dispatcher of each mode.
DISPATCHERS: dict[str, Callable[[], Dispatcher]] = {
    SERIAL: SerialDispatcher,
    THREADS: ThreadPoolDispatcher,
}
