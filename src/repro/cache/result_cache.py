"""The result cache: byte-budgeted LRU with version-vector invalidation."""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Hashable, Iterable

from repro.errors import ReproError
from repro.exec.memory import estimate_record_bytes
from repro.obs import metrics

#: Default byte budget for one cache (64 MiB).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


class DatasetVersions:
    """Monotonic per-dataset version counters for write invalidation.

    Every mutating path — ``persist()``, bulk loaders, cluster DDL/DML —
    :meth:`bump`\\ s the datasets it writes.  A query's cache key embeds
    the version *vector* of every registered dataset it touches, so an
    entry cached before a write can never match a lookup after it: the
    vectors differ.  Never-written datasets stay unregistered (implicit
    version 0), which is consistent on both the store and lookup side.
    """

    def __init__(self) -> None:
        self._versions: dict[str, int] = {}
        self._lock = threading.Lock()

    def bump(self, *names: str) -> None:
        """Record a write to each dataset in *names* (registering it)."""
        with self._lock:
            for name in names:
                if name:
                    self._versions[name] = self._versions.get(name, 0) + 1

    def version(self, name: str) -> int:
        with self._lock:
            return self._versions.get(name, 0)

    def vector(self, query: str, collection: str = "") -> tuple:
        """The sorted version vector of the datasets *query* touches.

        A registered dataset counts as touched when it is the send's
        target *collection* or its name appears in the query text — a
        deliberately conservative substring test: a false positive only
        widens the key (lowering the hit rate), never serves stale data,
        while any dataset that can influence the answer is either the
        target or named in the generated text (joins, ``$lookup``,
        ``MATCH`` clauses all spell out the other dataset).
        """
        with self._lock:
            snapshot = list(self._versions.items())
        return tuple(
            sorted(
                (name, version)
                for name, version in snapshot
                if name == collection or name in query
            )
        )


class CacheEntry:
    """One admitted result: an immutable snapshot of its records."""

    __slots__ = (
        "records",
        "plan_text",
        "elapsed_seconds",
        "nbytes",
        "stored_at",
        "served_node",
    )

    def __init__(
        self,
        records: list[Any],
        *,
        plan_text: str,
        elapsed_seconds: float,
        nbytes: int,
        stored_at: float,
        served_node: int = -1,
    ) -> None:
        self.records = records
        self.plan_text = plan_text
        self.elapsed_seconds = elapsed_seconds
        self.nbytes = nbytes
        self.stored_at = stored_at
        self.served_node = served_node


class ResultCache:
    """A byte-budgeted LRU of materialized query results.

    Admission is cost-aware: results are only cached when the measured
    query time reaches ``min_seconds``, an entry larger than
    ``max_entry_bytes`` is refused (one giant answer must not evict the
    whole working set), and *partial* (degraded scatter-gather) results
    are never admitted — a recovered cluster must re-execute, not keep
    serving the degraded answer from cache.  ``ttl_seconds`` optionally
    expires entries by age.

    Locked: connectors pointed at a thread-dispatched cluster look up
    and store from worker threads, and LRU reordering mutates the
    OrderedDict even on reads.  Counters are surfaced via :meth:`stats`
    (the same ``{hits, misses, entries, evictions, bytes}`` shape as
    :class:`~repro.cache.compiled.CompiledQueryCache`) and mirrored to
    process metrics (``result_cache_*_total``), labeled by *backend*
    when one is named.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        *,
        max_entry_bytes: int | None = None,
        min_seconds: float = 0.0,
        ttl_seconds: float | None = None,
        backend: str = "",
        clock=time.monotonic,
    ) -> None:
        if max_bytes < 1:
            raise ReproError("result cache needs a positive byte budget")
        self.max_bytes = max_bytes
        # Default: one entry may take at most an eighth of the budget.
        if max_entry_bytes is None:
            max_entry_bytes = max(1, max_bytes // 8)
        self.max_entry_bytes = min(max_entry_bytes, max_bytes)
        self.min_seconds = min_seconds
        self.ttl_seconds = ttl_seconds
        self.backend = backend
        self._clock = clock
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._bytes = 0
        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def lookup(self, key: Hashable) -> CacheEntry | None:
        """The cached entry for *key*, if present and not expired."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self.ttl_seconds is not None:
                if now - entry.stored_at > self.ttl_seconds:
                    # Expired: drop it and fall through to a miss.
                    del self._entries[key]
                    self._bytes -= entry.nbytes
                    self.evictions += 1
                    metrics.count("result_cache_evictions_total", self.backend)
                    entry = None
            if entry is None:
                self.misses += 1
                metrics.count("result_cache_misses_total", self.backend)
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            metrics.count("result_cache_hits_total", self.backend)
            return entry

    def store(
        self,
        key: Hashable,
        records: Iterable[Any],
        *,
        elapsed_seconds: float,
        plan_text: str = "",
        partial: bool = False,
        served_node: int = -1,
        nbytes: int | None = None,
    ) -> bool:
        """Admit a result snapshot; returns whether it was cached.

        *records* is copied, so later caller-side mutation cannot poison
        the cache.  *elapsed_seconds* is the measured query time the
        cost-aware admission threshold compares against; *nbytes* lets a
        caller that already accounted the records (the streaming tee)
        skip re-estimating them.
        """
        if partial or elapsed_seconds < self.min_seconds:
            return False
        snapshot = list(records)
        if nbytes is None:
            nbytes = sum(estimate_record_bytes(record) for record in snapshot)
        if nbytes > self.max_entry_bytes:
            return False
        entry = CacheEntry(
            snapshot,
            plan_text=plan_text,
            elapsed_seconds=elapsed_seconds,
            nbytes=nbytes,
            stored_at=self._clock(),
            served_node=served_node,
        )
        evicted = 0
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous.nbytes
            self._entries[key] = entry
            self._bytes += nbytes
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                _, victim = self._entries.popitem(last=False)
                self._bytes -= victim.nbytes
                evicted += 1
            self.evictions += evicted
        metrics.count("result_cache_evictions_total", self.backend, evicted)
        return True

    def admit_stream(self, key: Hashable, result: Any) -> None:
        """Tee a :class:`StreamingResultSet` into the cache as it drains.

        Records are buffered (byte-accounted) while they stream past;
        the snapshot is stored only when the stream is exhausted cleanly
        and the result is not partial.  An abandoned stream (``close()``
        before the end, a downstream LIMIT) stores nothing — a truncated
        answer must never be served as the full one.  Oversized streams
        stop buffering the moment they pass ``max_entry_bytes`` so a
        huge result costs no coordinator memory.
        """
        wrap = getattr(result, "wrap_source", None)
        if wrap is None:
            return

        def tee(source):
            buffer: list[Any] = []
            nbytes = 0
            keep = True
            completed = False
            try:
                for record in source:
                    if keep:
                        nbytes += estimate_record_bytes(record)
                        if nbytes > self.max_entry_bytes:
                            keep = False
                            buffer = []
                        else:
                            buffer.append(record)
                    yield record
                completed = True
            finally:
                close = getattr(source, "close", None)
                if close is not None:
                    close()
            if completed and keep and not result.partial:
                self.store(
                    key,
                    buffer,
                    elapsed_seconds=result.elapsed_seconds,
                    plan_text=result.plan_text,
                    partial=result.partial,
                    nbytes=nbytes,
                )

        wrap(tee)

    def note_invalidation(self, count: int = 1) -> None:
        """Record that a write bumped version counters (observability)."""
        with self._lock:
            self.invalidations += count
        metrics.count("result_cache_invalidations_total", self.backend, count)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.invalidations = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
                "evictions": self.evictions,
                "bytes": self._bytes,
                "invalidations": self.invalidations,
            }

    def __repr__(self) -> str:
        return (
            f"ResultCache(entries={len(self._entries)}, bytes={self._bytes}, "
            f"hits={self.hits}, misses={self.misses})"
        )
