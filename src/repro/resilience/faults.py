"""Deterministic fault injection (chaos hooks) for the dispatch layer.

The embedded engines never fail on their own, so the failure-handling
paths — retries, timeouts, circuit breaking, degraded scatter-gather —
need simulated faults to exercise them.  A :class:`FaultInjector` holds a
list of :class:`FaultRule` entries and a ``random.Random(seed)`` instance
(never the global ``random`` module, and nothing is seeded at import
time), so a given injector produces the same fault sequence on every run.

Hook points call :meth:`FaultInjector.before_request` with a *key* naming
the target: connectors use their class name (``"PostgresConnector"``),
the scatter-gather coordinator uses ``"<cluster-name>#shard<i>"`` per
shard attempt, and the replica-aware path appends the serving node
(``"<cluster-name>#shard<i>@node<j>"``).  Rules match keys by substring,
so a rule can target one shard (``"greenplum[4]#shard2"``), a whole
backend (``"greenplum"``), or everything (``backend=None``).  Node rules
(:data:`NODE_DOWN`, :data:`SLOW_NODE`) instead match the ``@node<j>``
suffix exactly, so node 1 never matches node 10.

``before_request`` returns the injected latency (seconds) it charged to
the attempt.  The replica path adds that to the engine's reported time,
so a no-op ``sleep`` hook still drives deterministic timeout and hedging
behaviour without wall-clock cost.

Env-driven chaos: setting ``REPRO_FAULT_RATE`` and/or ``REPRO_NODE_DOWN``
makes every connector and cluster without an explicit injector build its
own injector, paired with a fast retry policy
(:meth:`repro.config.Config.chaos`) — the CI chaos matrix runs the whole
test suite this way to prove retries and replica failover keep it green.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import TransientBackendError

TRANSIENT = "transient"  # raise TransientBackendError (recoverable)
DOWN = "down"  # raise TransientBackendError on *every* request (outage)
LATENCY = "latency"  # sleep before executing (can trip QueryTimeout)
NODE_DOWN = "node_down"  # sticky outage of one cluster node (all its replicas)
SLOW_NODE = "slow_node"  # sticky latency on one cluster node (drives hedging)

_KINDS = (TRANSIENT, DOWN, LATENCY, NODE_DOWN, SLOW_NODE)
_NODE_KINDS = (NODE_DOWN, SLOW_NODE)


@dataclass
class FaultRule:
    """One chaos behaviour, matched against request keys by substring.

    ``fail_first`` faults the first N requests per matching key (counted
    per key, so "fail each shard's first attempt" is one rule).  ``rate``
    faults each request with that probability, drawn from the injector's
    seeded RNG.  ``max_faults`` caps how many faults the rule may inject
    in total; ``injected`` counts how many it has.

    Node rules (``node_down``/``slow_node``) carry ``node`` and are
    *sticky*: they fire on every request whose key ends in ``@node<n>``
    (suffix match, so node 1 never catches node 10), modelling a machine
    that stays dead or slow until the rule is :meth:`~FaultInjector.restore`-d.
    """

    backend: str | None = None
    kind: str = TRANSIENT
    fail_first: int = 0
    rate: float = 0.0
    latency_seconds: float = 0.0
    max_faults: int | None = None
    injected: int = 0
    node: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.kind in _NODE_KINDS and self.node is None:
            raise ValueError(f"{self.kind} rules need a node index")

    def matches(self, key: str) -> bool:
        if self.backend is not None and self.backend not in key:
            return False
        if self.node is not None:
            return key.endswith(f"@node{self.node}")
        return True

    @property
    def exhausted(self) -> bool:
        return self.max_faults is not None and self.injected >= self.max_faults


@dataclass
class FaultInjector:
    """Seeded, rule-driven fault source shared by connectors and clusters."""

    seed: int = 2021
    sleep: Callable[[float], None] = time.sleep
    rules: list[FaultRule] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._requests: Counter[str] = Counter()
        # Shard attempts may arrive on dispatcher worker threads; the
        # request counter, the rng, and per-rule tallies are all
        # read-modify-write state.  Sleeps happen outside the lock so
        # latency injection never serializes concurrent shards.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Rule construction
    # ------------------------------------------------------------------
    def add_rule(self, rule: FaultRule) -> FaultRule:
        self.rules.append(rule)
        return rule

    def fail_first(self, attempts: int = 1, *, backend: str | None = None) -> FaultRule:
        """Fail the first *attempts* requests per matching key, then recover."""
        return self.add_rule(FaultRule(backend=backend, kind=TRANSIENT, fail_first=attempts))

    def transient_rate(self, rate: float, *, backend: str | None = None) -> FaultRule:
        """Fail each matching request with probability *rate*."""
        return self.add_rule(FaultRule(backend=backend, kind=TRANSIENT, rate=rate))

    def down(self, backend: str) -> FaultRule:
        """Take *backend* down hard: every matching request fails."""
        return self.add_rule(FaultRule(backend=backend, kind=DOWN))

    def latency(
        self,
        seconds: float,
        *,
        backend: str | None = None,
        rate: float = 1.0,
        max_faults: int | None = None,
    ) -> FaultRule:
        """Delay matching requests by *seconds* (with probability *rate*)."""
        return self.add_rule(
            FaultRule(
                backend=backend,
                kind=LATENCY,
                latency_seconds=seconds,
                rate=rate,
                max_faults=max_faults,
            )
        )

    def node_down(self, node: int, *, backend: str | None = None) -> FaultRule:
        """Take cluster node *node* down hard: every replica it hosts fails.

        Sticky — the node stays dead until the rule is :meth:`restore`-d,
        which is what makes replica failover (not retries) the only way a
        query survives.
        """
        return self.add_rule(FaultRule(backend=backend, kind=NODE_DOWN, node=node))

    def slow_node(
        self, node: int, seconds: float, *, backend: str | None = None
    ) -> FaultRule:
        """Make every request served by node *node* take *seconds* longer.

        Sticky latency, reported through :meth:`before_request`'s return
        value so the replica path can hedge the slow attempt onto another
        replica even under a no-op ``sleep`` hook.
        """
        return self.add_rule(
            FaultRule(backend=backend, kind=SLOW_NODE, node=node, latency_seconds=seconds)
        )

    def restore(self, rule: FaultRule) -> None:
        """Remove *rule*, e.g. to bring a downed backend back up."""
        self.rules.remove(rule)

    # ------------------------------------------------------------------
    # The hook
    # ------------------------------------------------------------------
    def before_request(self, key: str) -> float:
        """Called once per execution attempt; may sleep or raise.

        Raises :class:`TransientBackendError` when a matching failure rule
        fires, and returns the total latency (seconds) injected into this
        attempt, so callers with a no-op ``sleep`` hook can still charge
        the delay to the attempt's clock.  The request count for *key*
        increments first, so ``fail_first=N`` faults requests 1..N and
        lets request N+1 through.
        """
        failure: TransientBackendError | None = None
        injected_latency = 0.0
        with self._lock:
            self._requests[key] += 1
            count = self._requests[key]
            for rule in self.rules:
                if rule.exhausted or not rule.matches(key):
                    continue
                if rule.kind in (LATENCY, SLOW_NODE):
                    if (
                        rule.rate >= 1.0
                        or rule.kind == SLOW_NODE
                        or self._rng.random() < rule.rate
                    ):
                        rule.injected += 1
                        injected_latency += rule.latency_seconds
                    continue
                if rule.kind == NODE_DOWN:
                    rule.injected += 1
                    failure = TransientBackendError(
                        f"injected node outage: node{rule.node} hosting {key} is down"
                    )
                    break
                if rule.kind == DOWN:
                    rule.injected += 1
                    failure = TransientBackendError(f"injected outage: {key} is down")
                    break
                # TRANSIENT
                if (rule.fail_first and count <= rule.fail_first) or (
                    rule.rate and self._rng.random() < rule.rate
                ):
                    rule.injected += 1
                    failure = TransientBackendError(
                        f"injected transient failure on {key} (request #{count})"
                    )
                    break
        if injected_latency:
            self.sleep(injected_latency)
        if failure is not None:
            raise failure
        return injected_latency

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def requests(self, key: str) -> int:
        """How many execution attempts have been made against *key*."""
        return self._requests[key]

    def injected_faults(self) -> int:
        """Total faults injected across all rules (latency included)."""
        return sum(rule.injected for rule in self.rules)

    def reset(self) -> None:
        """Forget request counts and per-rule fault tallies (rules stay)."""
        with self._lock:
            self._requests.clear()
            self._rng = random.Random(self.seed)
            for rule in self.rules:
                rule.injected = 0


__all__ = [
    "DOWN",
    "LATENCY",
    "NODE_DOWN",
    "SLOW_NODE",
    "TRANSIENT",
    "FaultInjector",
    "FaultRule",
]
