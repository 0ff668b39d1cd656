"""Per-query memory budgets and disk spill.

The embedded engines bound a query's footprint the way PostgreSQL bounds
``work_mem``: pipelined operators stream records through without
materializing, and the blocking operators (sort, hash aggregation, hash
join builds) account the bytes they hold against a per-query
:class:`MemoryBudget`.  When an operator's reservation would exceed the
budget it *spills* — writes its in-memory state to a temp-file run and
keeps going — so the query completes with bounded accounted memory and a
byte-identical answer.

The budget comes from the ``REPRO_MEM_BUDGET`` environment variable or a
per-connector/engine ``memory_budget`` argument (the explicit argument
wins; :mod:`repro.config`).  Values are bytes, with optional
``k``/``m``/``g`` suffixes (``REPRO_MEM_BUDGET=64m``), parsed by
:func:`parse_budget`; a malformed value raises
:class:`~repro.errors.ReproError` naming the offending text rather than
silently running unbounded.

Spill format (:class:`SpillFile`): one unnamed temp file per spilling
operator, holding consecutive pickle frames.  Each *run* is a contiguous
span of frames recorded as ``(offset, count)``; runs are read back as
streaming iterators (one frame decoded at a time) so a merge of many
runs holds one record per run in memory.  Sorted runs merge through
:class:`SpillSorter`, which decorates every record with a global
sequence number — ``heapq.merge`` over ``(key, seq)`` then reproduces a
stable in-memory sort exactly, making spilled output byte-identical to
the unspilled path.

See ``docs/memory.md`` for the full design, including the documented
materialize fallbacks (tracing, resilience replay, blocking stages).
"""

from __future__ import annotations

import heapq
import io
import os
import pickle
import sys
import tempfile
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.config import parse_budget  # noqa: F401 - the budget grammar, re-exported
from repro.resilience.deadline import current_frame

if TYPE_CHECKING:
    from repro.sqlengine.result import QueryStats

#: How many records a blocking operator absorbs between cooperative
#: cancellation checkpoints.  Small enough that a cancelled or expired
#: query stops a spilling sort/group-by mid-build, large enough that the
#: per-record cost is one integer decrement.
CANCEL_CHECK_INTERVAL = 256

#: Flat per-record overhead (dict header + key interning slack) charged on
#: top of the measured value sizes; keeps the estimate monotone in record
#: count even for tiny records.
_RECORD_OVERHEAD = 64


def check_budget_frame(*, where: str = "") -> None:
    """Observe the ambient cancellation token and deadline, if any.

    Called by blocking operators every :data:`CANCEL_CHECK_INTERVAL`
    records so a spilling sort or group-by stops early — raising
    :class:`~repro.errors.QueryCancelledError` when a sibling shard
    failed fatally (or the consumer closed the stream) and
    :class:`~repro.errors.QueryTimeoutError` when the action's deadline
    lapsed mid-build — instead of finishing work nobody will read.
    With deadlines and cancellation off (the seed default) the ambient
    frame is empty and this is a no-op.
    """
    frame = current_frame()
    token = frame.token
    if token is not None and token.cancelled:
        token.check(where=where)
    deadline = frame.deadline
    if deadline is not None and deadline.expired():
        deadline.check(where=where)


def estimate_record_bytes(value: Any) -> int:
    """A cheap, deterministic estimate of *value*'s in-memory size.

    ``sys.getsizeof`` on the containers plus one level of values — deep
    enough for the flat record dicts the engines move, cheap enough to
    call per record.  Estimates only need to be consistent between the
    reserve and release sides; they are never compared to real RSS.
    """
    size = sys.getsizeof(value)
    if isinstance(value, dict):
        size += _RECORD_OVERHEAD
        for key, item in value.items():
            size += sys.getsizeof(key) + sys.getsizeof(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            size += sys.getsizeof(item)
    return size


class MemoryBudget:
    """Byte accounting for one query execution.

    Operators ``reserve`` bytes as they buffer state and ``release`` when
    they emit or spill it.  ``would_exceed`` is the spill trigger: a
    blocking operator asks before growing its buffer and spills instead
    of reserving past the limit.  The budget also records the query's
    spill volume so :class:`~repro.sqlengine.result.QueryStats` can report
    ``peak_mem_bytes`` / ``spill_bytes`` / ``spill_runs``.

    An unlimited budget (``limit_bytes=None``) still tracks the peak, so
    stats report accounted memory even when nothing ever spills.
    """

    __slots__ = ("limit_bytes", "used_bytes", "peak_bytes", "spill_bytes", "spill_runs")

    def __init__(self, limit_bytes: int | None = None):
        self.limit_bytes = limit_bytes
        self.used_bytes = 0
        self.peak_bytes = 0
        self.spill_bytes = 0
        self.spill_runs = 0

    @property
    def unlimited(self) -> bool:
        return self.limit_bytes is None

    def reserve(self, nbytes: int) -> None:
        """Account *nbytes* of buffered operator state."""
        self.used_bytes += nbytes
        if self.used_bytes > self.peak_bytes:
            self.peak_bytes = self.used_bytes

    def release(self, nbytes: int) -> None:
        """Return *nbytes* of previously reserved state."""
        self.used_bytes = max(0, self.used_bytes - nbytes)

    def would_exceed(self, extra: int) -> bool:
        """True when reserving *extra* more bytes would pass the limit."""
        if self.limit_bytes is None:
            return False
        return self.used_bytes + extra > self.limit_bytes

    def note_spill(self, nbytes: int) -> None:
        """Record one spilled run of *nbytes*."""
        self.spill_bytes += nbytes
        self.spill_runs += 1


def stamp_memory(stats: QueryStats, budget: MemoryBudget) -> None:
    """Copy a drained query's memory accounting onto its stats."""
    stats.peak_mem_bytes = max(stats.peak_mem_bytes, budget.peak_bytes)
    stats.spill_bytes += budget.spill_bytes
    stats.spill_runs += budget.spill_runs


def drain_with_stats(records: Iterable[Any], stats: QueryStats, budget: MemoryBudget):
    """Yield *records* through; stamp memory stats once the stream ends."""
    try:
        yield from records
    finally:
        stamp_memory(stats, budget)


class _PositionedReader(io.RawIOBase):
    """Reads from *fd* at an explicit offset via ``os.pread``.

    ``os.dup`` shares the underlying open file description — and with it
    the file offset — so seek-and-read run readers would corrupt each
    other's positions as soon as a run outgrows one read buffer.
    Positioned reads carry their own offset and never touch the shared
    one.
    """

    def __init__(self, fd: int, offset: int):
        self._fd = fd
        self._offset = offset

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, len(buffer), self._offset)
        n = len(data)
        buffer[:n] = data
        self._offset += n
        return n


class SpillFile:
    """An append-only temp file of pickled records, organized into runs.

    Each :meth:`write_run` appends one contiguous span of pickle frames
    and returns a run id; :meth:`read_run` streams the frames back one at
    a time.  The file is unlinked on :meth:`close` (and on interpreter
    exit via the ``tempfile`` machinery), so an abandoned spill never
    outlives its query.
    """

    def __init__(self) -> None:
        self._file = tempfile.TemporaryFile(prefix="repro-spill-")
        self._runs: list[tuple[int, int]] = []  # (offset, record count)
        self._closed = False

    @property
    def run_count(self) -> int:
        return len(self._runs)

    def write_run(self, records: Iterable[Any]) -> tuple[int, int]:
        """Append *records* as one run; return ``(run_id, bytes_written)``."""
        self._file.seek(0, io.SEEK_END)
        offset = self._file.tell()
        count = 0
        pickler = pickle.Pickler(self._file, protocol=pickle.HIGHEST_PROTOCOL)
        for record in records:
            pickler.dump(record)
            count += 1
        # Readers go through a dup'd fd, which sees only flushed bytes.
        self._file.flush()
        nbytes = self._file.tell() - offset
        self._runs.append((offset, count))
        return len(self._runs) - 1, nbytes

    def read_run(self, run_id: int) -> Iterator[Any]:
        """Stream one run's records back, one pickle frame at a time."""
        offset, count = self._runs[run_id]
        # The dup keeps the (unlinked) file alive even if the SpillFile
        # is closed mid-read; positioned reads keep each of the k-way
        # merge's concurrent readers independent of the others and of the
        # writer, since dup'd descriptors share one file offset.
        fd = os.dup(self._file.fileno())
        try:
            reader = io.BufferedReader(_PositionedReader(fd, offset))
            unpickler = pickle.Unpickler(reader)
            for _ in range(count):
                yield unpickler.load()
        finally:
            os.close(fd)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.close()

    def __enter__(self) -> "SpillFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SpillSorter:
    """External-merge sort with stable, byte-identical output.

    Records are added with their sort key; every record also receives a
    global sequence number.  While the accounted buffer fits the budget
    everything stays in memory; when the next record would exceed it the
    buffer is sorted by ``(key, seq)`` and written out as one run.  The
    final :meth:`sorted_records` merges all runs plus the in-memory
    remainder with ``heapq.merge`` keyed on ``(key, seq)`` — the sequence
    tiebreak makes the merge reproduce a stable in-memory sort exactly,
    so spilled and unspilled executions emit identical record order.
    """

    def __init__(self, budget: MemoryBudget):
        self._budget = budget
        self._buffer: list[tuple[Any, int, Any]] = []  # (key, seq, record)
        self._buffer_bytes = 0
        self._seq = 0
        self._spill: SpillFile | None = None
        self._cancel_countdown = CANCEL_CHECK_INTERVAL

    def add(self, key: Any, record: Any) -> None:
        self._cancel_countdown -= 1
        if self._cancel_countdown <= 0:
            self._cancel_countdown = CANCEL_CHECK_INTERVAL
            check_budget_frame(where="spill sort")
        nbytes = estimate_record_bytes(record) + _RECORD_OVERHEAD
        if self._buffer and self._budget.would_exceed(nbytes):
            self._flush_run()
        self._buffer.append((key, self._seq, record))
        self._seq += 1
        self._buffer_bytes += nbytes
        self._budget.reserve(nbytes)

    def _flush_run(self) -> None:
        self._buffer.sort(key=lambda entry: (entry[0], entry[1]))
        if self._spill is None:
            self._spill = SpillFile()
        _run_id, nbytes = self._spill.write_run(self._buffer)
        self._budget.note_spill(nbytes)
        self._budget.release(self._buffer_bytes)
        self._buffer = []
        self._buffer_bytes = 0

    @property
    def spilled(self) -> bool:
        return self._spill is not None

    def sorted_records(self) -> Iterator[Any]:
        """Yield records in stable ``(key, seq)`` order, then release."""
        self._buffer.sort(key=lambda entry: (entry[0], entry[1]))
        try:
            if self._spill is None:
                for _key, _seq, record in self._buffer:
                    yield record
                return
            streams: list[Iterator[tuple[Any, int, Any]]] = [
                self._spill.read_run(run_id) for run_id in range(self._spill.run_count)
            ]
            streams.append(iter(self._buffer))
            merged = heapq.merge(*streams, key=lambda entry: (entry[0], entry[1]))
            for _key, _seq, record in merged:
                yield record
        finally:
            self.close()

    def close(self) -> None:
        """Release all accounted memory and delete the spill file."""
        self._budget.release(self._buffer_bytes)
        self._buffer = []
        self._buffer_bytes = 0
        if self._spill is not None:
            self._spill.close()
            self._spill = None


class SpillableGroups:
    """A hash-group table that spills accumulator states under pressure.

    Entries are ``key -> (first_seen_seq, state)`` where *state* is
    whatever the caller groups by key (accumulator lists plus a
    representative row).  When adding a *new* key would exceed the
    budget, the whole table is written out as one run and grouping
    restarts empty; at finalize time per-key states are merged across
    runs (via the caller's ``merge_states``) and groups are emitted in
    global first-seen order — byte-identical to the in-memory dict's
    insertion order.
    """

    def __init__(self, budget: MemoryBudget):
        self._budget = budget
        self._groups: dict[Any, tuple[int, Any]] = {}
        self._group_bytes: dict[Any, int] = {}
        self._table_bytes = 0
        self._seq = 0
        self._spill: SpillFile | None = None
        self._cancel_countdown = CANCEL_CHECK_INTERVAL

    def __len__(self) -> int:
        return len(self._groups)

    def get(self, key: Any) -> Any | None:
        entry = self._groups.get(key)
        return entry[1] if entry is not None else None

    def insert(self, key: Any, state: Any, nbytes: int) -> None:
        """Add a new group, spilling the current table first if needed."""
        self._cancel_countdown -= 1
        if self._cancel_countdown <= 0:
            self._cancel_countdown = CANCEL_CHECK_INTERVAL
            check_budget_frame(where="spill group-by")
        nbytes += _RECORD_OVERHEAD
        if self._groups and self._budget.would_exceed(nbytes):
            self._flush_run()
        self._groups[key] = (self._seq, state)
        self._group_bytes[key] = nbytes
        self._seq += 1
        self._table_bytes += nbytes
        self._budget.reserve(nbytes)

    def _flush_run(self) -> None:
        run = [(seq, key, state) for key, (seq, state) in self._groups.items()]
        if self._spill is None:
            self._spill = SpillFile()
        _run_id, nbytes = self._spill.write_run(run)
        self._budget.note_spill(nbytes)
        self._budget.release(self._table_bytes)
        self._groups = {}
        self._group_bytes = {}
        self._table_bytes = 0

    @property
    def spilled(self) -> bool:
        return self._spill is not None

    def finalized(self, merge_states) -> Iterator[Any]:
        """Yield each group's merged state in global first-seen order.

        *merge_states(acc_state, new_state)* folds a later run's state for
        the same key into the earlier one (in encounter order) and
        returns the merged state.
        """
        try:
            if self._spill is None:
                for _key, (_seq, state) in self._groups.items():
                    yield state
                return
            combined: dict[Any, tuple[int, Any]] = {}
            for run_id in range(self._spill.run_count):
                for seq, key, state in self._spill.read_run(run_id):
                    prior = combined.get(key)
                    if prior is None:
                        combined[key] = (seq, state)
                    else:
                        combined[key] = (prior[0], merge_states(prior[1], state))
            for key, (seq, state) in self._groups.items():
                prior = combined.get(key)
                if prior is None:
                    combined[key] = (seq, state)
                else:
                    combined[key] = (prior[0], merge_states(prior[1], state))
            for _seq, state in sorted(combined.values(), key=lambda entry: entry[0]):
                yield state
        finally:
            self.close()

    def close(self) -> None:
        self._budget.release(self._table_bytes)
        self._groups = {}
        self._group_bytes = {}
        self._table_bytes = 0
        if self._spill is not None:
            self._spill.close()
            self._spill = None
