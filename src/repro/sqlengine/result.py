"""Query results and execution statistics."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

#: How a statistic combines: across the shards of one gather
#: (:meth:`QueryStats.merge`) and across the sends of one benchmark
#: expression (``repro.bench.runner``).  A statistic not named here is a
#: count, and sums.  ``docs/observability.md`` tabulates every field.
STAT_RULES: dict[str, str] = {
    # Peaks: shards (and an expression's sends) at worst overlap, so the
    # combined peak is the largest single one.
    "peak_mem_bytes": "max",
    "parallelism": "max",
    "nesting_depth": "max",
    # A label every contributor agrees on, else 'mixed'; empty never votes.
    "exec_engine": "label",
    "dispatch_mode": "label",
    # Only as close to its deadline as the tightest contributor; zero
    # means "no deadline", so it never wins.
    "deadline_budget_ms": "min_nonzero",
}


def fold_stat(rule: str, acc: Any, value: Any) -> Any:
    """Combine two values of one statistic under *rule* (``STAT_RULES``)."""
    if rule == "sum":
        return acc + value
    if rule == "max":
        return max(acc, value)
    if not value:
        return acc
    if not acc:
        return value
    if rule == "label":
        return acc if acc == value else "mixed"
    return min(acc, value)  # "min_nonzero"


@dataclass
class QueryStats:
    """Work counters recorded while executing a physical plan.

    The test suite uses these to assert plan shape rather than timing:
    an index-only plan has ``heap_fetches == 0``; a plan that avoided a full
    scan has ``full_scans == 0``.
    """

    heap_fetches: int = 0  # table rows read
    index_entries: int = 0  # index entries probed or scanned
    full_scans: int = 0  # full table/collection scans opened
    string_store_reads: int = 0  # used by the graph engine's record layout
    retries: int = 0  # extra execution attempts spent recovering shards/queries
    failed_shards: int = 0  # shards dropped from a degraded scatter-gather
    failovers: int = 0  # shard reads moved to another replica mid-query
    hedges: int = 0  # hedged (raced) replica requests launched
    hedge_wins: int = 0  # hedged requests that beat the original attempt
    quorum_reads: int = 0  # shards answered under quorum checksum checking
    compile_cache_hits: int = 0  # compiled-query cache hits behind this result
    compile_cache_misses: int = 0  # plans that had to be compiled from scratch
    plan_cache_hits: int = 0  # engine runs whose query text was already prepared
    plan_cache_misses: int = 0  # engine runs that parsed and planned their text
    result_cache_hits: int = 0  # answers (whole or per-shard) served from cache
    result_cache_misses: int = 0  # cache probes that had to execute instead
    singleflight_waits: int = 0  # sends that blocked on an identical in-flight query
    batches: int = 0  # column batches scanned by the vector engine
    peak_mem_bytes: int = 0  # peak accounted operator memory
    spill_bytes: int = 0  # bytes written to disk spill runs
    spill_runs: int = 0  # spill runs written under memory pressure
    exec_engine: str = ""  # 'row' | 'vector' (empty: engine has no such choice)
    dispatch_mode: str = ""  # 'serial' | 'threads' (empty: single node)
    parallelism: int = 0  # max shard queries in flight at once (0 = single node)
    queue_wait_ms: float = 0.0  # time spent waiting in admission queues
    deadline_budget_ms: float = 0.0  # deadline budget left at completion (0 = none)
    cancelled: int = 0  # work units cooperatively cancelled below this result

    def merge(self, other: "QueryStats") -> None:
        """Fold *other* (another shard's stats) in, field by field."""
        for name, rule in _MERGE_RULES:
            value = fold_stat(rule, getattr(self, name), getattr(other, name))
            setattr(self, name, value)


_MERGE_RULES = tuple(
    (f.name, STAT_RULES.get(f.name, "sum")) for f in fields(QueryStats)
)


class _RenderedOnRead:
    """A text field that may be set to a callable: it renders the text on
    the first read, and the text is kept."""

    def __get__(self, obj: Any, owner: type | None = None) -> str:
        if obj is None:
            return ""  # the dataclass default
        text = obj.__dict__["_plan_text"]
        if not isinstance(text, str):
            text = obj.__dict__["_plan_text"] = text()
        return text

    def __set__(self, obj: Any, value: Any) -> None:
        obj.__dict__["_plan_text"] = value


@dataclass
class ResultSet:
    """Materialized output of one query execution.

    ``partial`` marks a degraded scatter-gather answer: one or more shards
    were irrecoverably down and the records cover only the surviving
    shards (opt-in via ``allow_partial=True``).  ``shard_attempts`` holds
    the per-shard execution attempt counts for cluster queries, in shard
    order (empty for single-node results).

    ``op_profile`` is the per-operator execution profile
    (:class:`repro.obs.OpProfile`) when the query ran in analyze mode or
    under tracing; ``None`` otherwise.

    ``served_by`` maps each shard (by position) to the cluster node that
    actually answered it — under failover or hedging that may not be the
    primary.  Empty for single-node results and for answers a
    connector served from its result cache.

    ``plan_text`` may be set to a callable, rendered on the first read.
    """

    records: list[Any] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    plan_text: str = _RenderedOnRead()  # type: ignore[assignment]
    elapsed_seconds: float = 0.0
    partial: bool = False
    shard_attempts: tuple[int, ...] = ()
    op_profile: Any = None
    served_by: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def iter_records(self):
        """Iterate the records; streaming subclasses drain lazily."""
        return iter(self.records)

    @property
    def streaming(self) -> bool:
        """True while an underlying record stream is still draining.

        Always False for materialized results, so callers can ask for
        ``stream=True``, get a documented materialize fallback (tracing,
        blocking merges), and not special-case it.
        """
        return False

    def close(self) -> None:
        """Release any underlying stream; a no-op when materialized."""

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result.

        Accepts either a bare value (SQL++ ``SELECT VALUE``) or a one-entry
        record (``SELECT COUNT(*) ...``).
        """
        if len(self.records) != 1:
            raise ValueError(f"expected exactly one row, got {len(self.records)}")
        record = self.records[0]
        if isinstance(record, dict):
            if len(record) != 1:
                raise ValueError(f"expected a single column, got {sorted(record)}")
            return next(iter(record.values()))
        return record

    def to_records(self) -> list[dict[str, Any]]:
        """Records as dicts; bare values become ``{'value': v}`` rows."""
        out: list[dict[str, Any]] = []
        for record in self.records:
            if isinstance(record, dict):
                out.append(record)
            else:
                out.append({"value": record})
        return out


class StreamingResultSet(ResultSet):
    """A lazily-draining result over a pull-based record stream.

    Until something touches :attr:`records`, nothing is buffered:
    :meth:`iter_records` (and plain iteration) pulls straight from the
    underlying operator pipeline one record at a time, so a streaming
    client never holds the full result.  Touching :attr:`records`
    (``len()``, ``scalar()``, ``to_records()``) *materializes* the
    remaining stream into memory — the documented fallback that keeps
    every consumer of the eager API working unchanged.

    Draining is one-shot: records already yielded by :meth:`iter_records`
    are gone, and a second iteration sees only what the first left
    behind.  ``stats`` (including ``peak_mem_bytes``/``spill_bytes``) is
    only final once the stream is exhausted, because operators account
    memory as records are pulled through them.
    """

    def __init__(self, record_source=None, **kwargs):
        self._source = iter(record_source) if record_source is not None else None
        self._on_drain: list = []
        kwargs.setdefault("records", [])
        super().__init__(**kwargs)

    def on_drain(self, callback) -> None:
        """Run *callback* once the source stream is exhausted or closed.

        By then the pipeline's cleanup has run, so ``stats`` carries the
        final drain-dependent numbers (``peak_mem_bytes``, spill
        counters).  If the stream is already drained the callback runs
        immediately.
        """
        if self._source is None:
            callback()
        else:
            self._on_drain.append(callback)

    def _finish(self) -> None:
        callbacks, self._on_drain = self._on_drain, []
        for callback in callbacks:
            callback()

    def wrap_source(self, wrapper) -> None:
        """Replace the record source with ``wrapper(source)``.

        The hook the result cache uses to tee records into an admission
        buffer as they stream past.  The wrapper owns closing the inner
        source; must be called before anything starts draining.
        """
        if self._source is not None:
            self._source = wrapper(self._source)

    @property
    def records(self) -> list[Any]:
        self._materialize()
        return self._records

    @records.setter
    def records(self, value) -> None:
        self._records = list(value)

    @property
    def streaming(self) -> bool:
        """True while the source stream has not been fully drained."""
        return self._source is not None

    def _materialize(self) -> None:
        if self._source is not None:
            source, self._source = self._source, None
            self._records.extend(source)
            self._finish()

    def iter_records(self):
        """Stream records one at a time without buffering them (one-shot)."""
        while self._records:
            yield self._records.pop(0)
        source = self._source
        if source is not None:
            try:
                for record in source:
                    yield record
            finally:
                # Propagate an early close (LIMIT satisfied downstream,
                # or an abandoned iterator) into the pipeline so
                # operators release their budget reservations and stats
                # get stamped deterministically.  ``close()`` may have
                # beaten us to it — only finalize if we still own the
                # source.
                if self._source is source:
                    self._source = None
                    close = getattr(source, "close", None)
                    if close is not None:
                        close()
                    self._finish()

    def close(self) -> None:
        """Abandon the remaining stream, closing the record source.

        The pipeline's cleanup (budget release, stats stamping) runs
        immediately instead of waiting for garbage collection.
        """
        if self._source is not None:
            source, self._source = self._source, None
            close = getattr(source, "close", None)
            if close is not None:
                close()
            self._finish()

    def __iter__(self):
        return self.iter_records()
