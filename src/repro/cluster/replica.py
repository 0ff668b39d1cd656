"""Replica placement, node health tracking, and hedging policy.

The seed cluster simulation kept exactly one copy of every shard, so one
exhausted retry budget degraded or killed the whole query.  This module
adds the machinery real deployments use to stay available:

- :class:`ReplicaSet` — chained-declustering placement of each shard on
  ``replication_factor`` nodes (shard *s* lives on nodes ``s, s+1, ...``
  mod *N*), so losing any single node leaves every shard with a live
  copy and spreads the failed-over load across *all* survivors instead
  of doubling one neighbour's work.
- :class:`NodeHealth` / :class:`NodeHealthBoard` — per-node EWMA latency
  and consecutive-failure tracking with up → suspect → down states, an
  optional per-node :class:`~repro.resilience.breaker.CircuitBreaker`,
  and the ``nodes_down`` gauge.  The board ranks a shard's replicas by
  health so scatter-gather tries the most promising copy first.
- :class:`HedgePolicy` — decides when an attempt has outlived the node's
  tracked latency estimate and should be raced against another replica.
- :class:`ReplicaStore` — owns the per-(shard, node) engine instances:
  each replica copy is its own embedded engine, a node is the set of
  engine instances it hosts.

``REPRO_REPLICATION`` sets the process-wide default replication factor
(:mod:`repro.config`); clusters default to R=1 so the seed behaviour is
unchanged unless replication is asked for.
"""

from __future__ import annotations

import threading
import zlib
from typing import Any, Callable, Iterable, Sequence

from repro.errors import CircuitOpenError, ReproError
from repro.obs import metrics
from repro.resilience.breaker import CircuitBreaker

#: Default replication factor for an explicitly constructed ReplicaSet.
DEFAULT_REPLICATION_FACTOR = 2

# NodeHealth states.
UP = "up"
SUSPECT = "suspect"
DOWN = "down"


class ReplicaSet:
    """Chained-declustering placement of shards onto replicated nodes.

    Shard *s*'s copies live on nodes ``(s + offset) % num_nodes`` for
    ``offset in range(replication_factor)``; node *s % N* is the primary.
    With R=2 this is classic chained declustering: node *n*'s primaries
    are backed up on node *n+1*, so any single-node loss is survivable
    and the extra read load lands one hop over rather than all on one
    machine.
    """

    def __init__(
        self,
        num_shards: int,
        num_nodes: int,
        replication_factor: int = DEFAULT_REPLICATION_FACTOR,
    ) -> None:
        if num_shards < 1:
            raise ReproError(f"num_shards must be >= 1, got {num_shards}")
        if num_nodes < 1:
            raise ReproError(f"num_nodes must be >= 1, got {num_nodes}")
        if replication_factor < 1:
            raise ReproError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        if replication_factor > num_nodes:
            raise ReproError(
                f"replication_factor {replication_factor} exceeds "
                f"num_nodes {num_nodes}: cannot place that many distinct copies"
            )
        self.num_shards = num_shards
        self.num_nodes = num_nodes
        self.replication_factor = replication_factor

    def replicas_for(self, shard: int) -> tuple[int, ...]:
        """The nodes hosting *shard*, primary first."""
        if not 0 <= shard < self.num_shards:
            raise ReproError(
                f"shard {shard} out of range for {self.num_shards} shards"
            )
        return tuple(
            (shard + offset) % self.num_nodes
            for offset in range(self.replication_factor)
        )

    def primary_for(self, shard: int) -> int:
        """The primary node for *shard*."""
        return self.replicas_for(shard)[0]

    def shards_on(self, node: int) -> tuple[int, ...]:
        """Every shard with a copy on *node* (primary or backup)."""
        if not 0 <= node < self.num_nodes:
            raise ReproError(f"node {node} out of range for {self.num_nodes} nodes")
        return tuple(
            shard
            for shard in range(self.num_shards)
            if node in self.replicas_for(shard)
        )

    def placement(self) -> dict[int, tuple[int, ...]]:
        """Full shard → replica-nodes map (primary first), for stats/docs."""
        return {shard: self.replicas_for(shard) for shard in range(self.num_shards)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaSet(shards={self.num_shards}, nodes={self.num_nodes}, "
            f"R={self.replication_factor})"
        )


class NodeHealth:
    """Health record for one cluster node, fed by shard attempt outcomes.

    Latency is tracked as an exponentially weighted moving average
    (``alpha`` weights the newest sample); failures are counted
    consecutively and reset on any success.  States: ``up`` (healthy),
    ``suspect`` (≥ ``suspect_after`` consecutive failures — still tried,
    but ranked after healthy peers), ``down`` (≥ ``down_after`` — tried
    only when no healthier replica remains).
    """

    def __init__(
        self,
        node: int,
        *,
        alpha: float = 0.3,
        suspect_after: int = 1,
        down_after: int = 3,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ReproError(f"alpha must be in (0, 1], got {alpha}")
        if not 1 <= suspect_after <= down_after:
            raise ReproError(
                f"need 1 <= suspect_after <= down_after, "
                f"got {suspect_after} and {down_after}"
            )
        self.node = node
        self.alpha = alpha
        self.suspect_after = suspect_after
        self.down_after = down_after
        self.breaker = breaker
        self.ewma_latency: float | None = None
        self.latency_samples = 0
        self.consecutive_failures = 0
        self.successes = 0
        self.failures = 0

    @property
    def state(self) -> str:
        if self.consecutive_failures >= self.down_after:
            return DOWN
        if self.consecutive_failures >= self.suspect_after:
            return SUSPECT
        return UP

    @property
    def state_rank(self) -> int:
        """0 = up, 1 = suspect, 2 = down — lower tries first."""
        return {UP: 0, SUSPECT: 1, DOWN: 2}[self.state]

    def record_success(self, latency_seconds: float) -> None:
        self.successes += 1
        self.consecutive_failures = 0
        self.latency_samples += 1
        if self.ewma_latency is None:
            self.ewma_latency = latency_seconds
        else:
            self.ewma_latency = (
                self.alpha * latency_seconds + (1.0 - self.alpha) * self.ewma_latency
            )
        if self.breaker is not None:
            self.breaker.record_success()

    def record_failure(self) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        if self.breaker is not None:
            self.breaker.record_failure()

    def allow(self) -> bool:
        """Whether the node's breaker (if any) admits a request now."""
        if self.breaker is None:
            return True
        try:
            self.breaker.allow()
        except CircuitOpenError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ewma = f"{self.ewma_latency:.6f}" if self.ewma_latency is not None else "-"
        return (
            f"NodeHealth(node={self.node}, state={self.state}, "
            f"ewma={ewma}, consecutive_failures={self.consecutive_failures})"
        )


class NodeHealthBoard:
    """Per-node health for one cluster, with the ``nodes_down`` gauge.

    ``breaker_factory`` (node index → :class:`CircuitBreaker` or ``None``)
    turns the existing per-backend breaker into a per-node one: a node
    whose breaker is open is skipped (counted as a failover) while any
    healthier replica remains.
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        cluster_name: str = "",
        alpha: float = 0.3,
        suspect_after: int = 1,
        down_after: int = 3,
        breaker_factory: Callable[[int], CircuitBreaker | None] | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ReproError(f"num_nodes must be >= 1, got {num_nodes}")
        self.cluster_name = cluster_name
        self._nodes = [
            NodeHealth(
                node,
                alpha=alpha,
                suspect_after=suspect_after,
                down_after=down_after,
                breaker=breaker_factory(node) if breaker_factory is not None else None,
            )
            for node in range(num_nodes)
        ]
        self._gauged_down: set[int] = set()
        # Shard attempts may run on dispatcher worker threads; EWMA and
        # failure-streak updates are read-modify-write sequences.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node: int) -> NodeHealth:
        return self._nodes[node]

    def _gauge(self):
        if self.cluster_name:
            return metrics.gauge("nodes_down", cluster=self.cluster_name)
        return metrics.gauge("nodes_down")

    def _sync_gauge(self, node: int) -> None:
        is_down = self._nodes[node].state == DOWN
        if is_down and node not in self._gauged_down:
            self._gauged_down.add(node)
            self._gauge().inc()
        elif not is_down and node in self._gauged_down:
            self._gauged_down.discard(node)
            self._gauge().dec()

    def record_success(self, node: int, latency_seconds: float) -> None:
        with self._lock:
            self._nodes[node].record_success(latency_seconds)
            self._sync_gauge(node)

    def record_failure(self, node: int) -> None:
        with self._lock:
            self._nodes[node].record_failure()
            self._sync_gauge(node)

    def allow(self, node: int) -> bool:
        return self._nodes[node].allow()

    def latency_estimate(self, node: int) -> float | None:
        return self._nodes[node].ewma_latency

    def down_nodes(self) -> tuple[int, ...]:
        return tuple(h.node for h in self._nodes if h.state == DOWN)

    def order(self, replicas: Sequence[int]) -> tuple[int, ...]:
        """Rank *replicas* healthiest-first, preserving placement order
        among equals (stable sort), so the primary still serves when all
        copies are equally healthy."""
        with self._lock:
            return tuple(sorted(replicas, key=lambda n: self._nodes[n].state_rank))


class HedgePolicy:
    """When to race a slow attempt against another replica.

    An attempt hedges when its effective time exceeds
    ``latency_multiplier ×`` the serving node's EWMA latency estimate —
    but only once the node has ``min_samples`` latency samples, so cold
    estimates don't hedge everything.  ``threshold_seconds`` overrides
    the adaptive threshold with a fixed one (useful in tests and for
    strict tail-latency SLOs).  ``enabled=False`` turns hedging off.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        latency_multiplier: float = 3.0,
        min_samples: int = 3,
        threshold_seconds: float | None = None,
    ) -> None:
        if latency_multiplier <= 1.0:
            raise ReproError(
                f"latency_multiplier must be > 1, got {latency_multiplier}"
            )
        if threshold_seconds is not None and threshold_seconds < 0:
            raise ReproError(
                f"threshold_seconds must be >= 0, got {threshold_seconds}"
            )
        self.enabled = enabled
        self.latency_multiplier = latency_multiplier
        self.min_samples = min_samples
        self.threshold_seconds = threshold_seconds

    def threshold_for(self, health: NodeHealth) -> float | None:
        """The hedge threshold for an attempt served by *health*'s node,
        or ``None`` when hedging shouldn't trigger (disabled / too few
        samples to trust the estimate)."""
        if not self.enabled:
            return None
        if self.threshold_seconds is not None:
            return self.threshold_seconds
        if health.ewma_latency is None or health.latency_samples < self.min_samples:
            return None
        return self.latency_multiplier * health.ewma_latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.enabled:
            return "HedgePolicy(enabled=False)"
        if self.threshold_seconds is not None:
            return f"HedgePolicy(threshold={self.threshold_seconds}s)"
        return (
            f"HedgePolicy(multiplier={self.latency_multiplier}, "
            f"min_samples={self.min_samples})"
        )


class ReplicaStore:
    """The engine instances backing a :class:`ReplicaSet`.

    Each (shard, node) replica copy is its own embedded engine instance —
    the honest in-process analogue of a copy of the shard's data living
    on that machine.  ``make_engine(shard, node)`` builds one; the store
    materialises every placement eagerly so DDL/loads can fan out to all
    copies.
    """

    def __init__(
        self, replica_set: ReplicaSet, make_engine: Callable[[int, int], Any]
    ) -> None:
        self.replica_set = replica_set
        self._engines: dict[tuple[int, int], Any] = {}
        for shard in range(replica_set.num_shards):
            for node in replica_set.replicas_for(shard):
                self._engines[(shard, node)] = make_engine(shard, node)

    def engine(self, shard: int, node: int) -> Any:
        """The engine holding *shard*'s copy on *node*."""
        try:
            return self._engines[(shard, node)]
        except KeyError:
            raise ReproError(
                f"shard {shard} has no replica on node {node}; "
                f"its replicas live on {self.replica_set.replicas_for(shard)}"
            ) from None

    def engines_for(self, shard: int) -> tuple[Any, ...]:
        """Every engine holding a copy of *shard*, primary first."""
        return tuple(
            self._engines[(shard, node)]
            for node in self.replica_set.replicas_for(shard)
        )

    def primaries(self) -> list[Any]:
        """One primary engine per shard — the seed's ``cluster.nodes`` view."""
        return [
            self._engines[(shard, self.replica_set.primary_for(shard))]
            for shard in range(self.replica_set.num_shards)
        ]

    def all_engines(self) -> list[Any]:
        """Every engine instance, deterministic (shard, node) order."""
        return [self._engines[key] for key in sorted(self._engines)]


def records_checksum(records: Iterable[Any]) -> int:
    """CRC32 over the repr of each record — the quorum-read comparator.

    Cheap, deterministic, and order-sensitive: two replicas serving the
    same shard must return identical rows in identical order, so any
    divergence (lost write, stale copy) changes the checksum.
    """
    crc = 0
    for record in records:
        crc = zlib.crc32(repr(record).encode("utf-8"), crc)
    return crc


__all__ = [
    "DEFAULT_REPLICATION_FACTOR",
    "DOWN",
    "SUSPECT",
    "UP",
    "HedgePolicy",
    "NodeHealth",
    "NodeHealthBoard",
    "ReplicaSet",
    "ReplicaStore",
    "records_checksum",
]
