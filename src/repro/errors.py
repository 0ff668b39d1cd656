"""Exception hierarchy shared by every subsystem in the PolyFrame reproduction.

Each embedded database engine, the PolyFrame core, and the benchmark harness
raise exceptions from this module so that callers can catch a single family
of errors (``ReproError``) or a precise subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ReproError, ValueError):
    """A ``REPRO_*`` variable or a knob kwarg has a value no parser accepts."""


class StorageError(ReproError):
    """A storage-layer invariant was violated (heap, index, catalog)."""


class CatalogError(StorageError):
    """A table, dataset, collection, or index name could not be resolved."""


class DuplicateKeyError(StorageError):
    """An insert violated a unique (primary key) constraint."""


class QueryError(ReproError):
    """Base class for query language front-end errors."""


class LexerError(QueryError):
    """The query text contained a character sequence that cannot be tokenized."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class ParseError(QueryError):
    """The token stream did not match the language grammar."""


class PlanningError(QueryError):
    """A parsed query could not be converted into an executable plan."""


class ExecutionError(ReproError):
    """A runtime failure occurred while executing a physical plan."""


class UnsupportedOperationError(ReproError):
    """The requested operation exists in the paper's scope but is not valid here.

    The canonical example is MongoDB's ``$lookup`` against a sharded
    collection: the paper notes that MongoDB only joins unsharded data, so the
    sharded document store raises this error for expression 12.
    """


class RewriteError(ReproError):
    """A language rewrite rule was missing or its substitution failed."""


class ConnectorError(ReproError):
    """A database connector could not complete a request."""


class TransientBackendError(ConnectorError):
    """A backend request failed in a way that may succeed if retried.

    Raised by the fault injector (simulated network blips, shard restarts)
    and suitable for any backend error that is not a property of the query
    itself.  The retry machinery treats this family as retryable.
    """


class QueryTimeoutError(TransientBackendError):
    """A query exceeded its configured deadline.

    Subclasses :class:`TransientBackendError` because a timeout usually
    reflects transient load, not a broken query, so the default retry
    classification retries it.
    """


class QueryCancelledError(ReproError):
    """In-flight work was cooperatively cancelled, not failed.

    Raised from cancellation checkpoints (operator batch boundaries,
    shard attempt starts, hedge legs) once a
    :class:`~repro.resilience.deadline.CancellationToken` fires — the
    first fatal shard error, or a consumer closing a streaming result,
    cancels sibling work that nobody will read.  Deliberately *not* a
    :class:`ConnectorError`: the backend did not fail, the coordinator
    stopped caring, so retry/failover machinery must not treat it as an
    outage, and the coordinator reports the original error (or the
    winning result), never this one.
    """


class OverloadError(TransientBackendError):
    """A query was shed by admission control before executing.

    Raised when a connector or cluster's
    :class:`~repro.resilience.admission.AdmissionController` refuses a
    query — the wait queue is full, or the estimated queue wait exceeds
    the query's remaining deadline budget.  Subclasses
    :class:`TransientBackendError` because overload is transient by
    definition: the same query succeeds once load drops, so the default
    retry classification retries it (after backoff).  Carries
    ``retry_after`` — the controller's estimate, in seconds, of when
    capacity will be available — so callers can pace their retries.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class CircuitOpenError(ConnectorError):
    """A request was rejected because the backend's circuit breaker is open.

    Raised *without* touching the backend: after repeated failures the
    breaker fails fast until its cool-down elapses.  Deliberately not a
    :class:`TransientBackendError` — retrying immediately would defeat the
    breaker's purpose.
    """


class ShardFailureError(ConnectorError):
    """A scatter-gather shard failed after exhausting its retry budget.

    With replication the budget spans every replica: the error fires only
    once *all* copies of the shard are exhausted.  Carries ``shard`` (the
    shard index) and ``attempts`` (how many times the shard was tried,
    summed across replicas) so callers can report precisely which part of
    a cluster is down.
    """

    def __init__(self, message: str, *, shard: int | None = None, attempts: int = 0) -> None:
        super().__init__(message)
        self.shard = shard
        self.attempts = attempts


class ReplicaDivergenceError(ConnectorError):
    """A quorum-checked read found replicas of a shard disagreeing.

    Raised when the opt-in quorum read mode cross-checks replica row
    checksums and they do not match — the replication analogue of a
    failed read-repair check.  Carries ``shard`` and the ``nodes`` whose
    answers were compared.  Deliberately not a
    :class:`TransientBackendError`: divergence is a data-integrity
    signal, and retrying would just re-read the same divergent copies.
    """

    def __init__(
        self, message: str, *, shard: int | None = None, nodes: tuple[int, ...] = ()
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.nodes = tuple(nodes)


class MemoryBudgetExceeded(MemoryError, ReproError):
    """The eager (Pandas-like) frame exceeded its configured memory budget.

    Mirrors the out-of-memory failures the paper reports for Pandas on the
    M, L, and XL dataset sizes.  Subclasses :class:`MemoryError` so generic
    OOM handling also catches it.
    """
