"""The graph database facade (Neo4j stand-in).

Every query text is a prepared query: the engine parses a text once and
keeps the parsed query in its ``plan_cache`` (a bounded LRU keyed on the
text — parsing reads no schema, so no DDL can make an entry stale); each
call binds its ``params`` (``$p0`` is ``params[0]``) into that query, and
the executor plans and runs the bound query from scratch.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Sequence

from repro import obs
from repro.cache.compiled import CompiledQueryCache, binder
from repro.config import Config
from repro.exec.memory import MemoryBudget, drain_with_stats, stamp_memory
from repro.graphdb.cypher_ast import CypherQuery, Lit, Param, Un
from repro.graphdb.cypher_parser import parse
from repro.graphdb.executor import CypherExecutor
from repro.graphdb.store import GraphStore
from repro.sqlengine.result import QueryStats, ResultSet, StreamingResultSet

#: Simulated fixed per-query overhead (Cypher compile + Bolt round trip).
DEFAULT_PREP_OVERHEAD = 0.00015


class Neo4jDatabase:
    """A labeled-node graph database speaking a Cypher subset.

    Usage::

        db = Neo4jDatabase()
        db.load("Users", records)           # one node per record
        db.create_index("Users", "unique1")
        result = db.execute("MATCH(t: Users) RETURN COUNT(*) AS t")
    """

    def __init__(
        self,
        *,
        query_prep_overhead: float = DEFAULT_PREP_OVERHEAD,
        name: str = "neo4j",
        memory_budget: int | str | None = None,
    ) -> None:
        self.name = name
        self.query_prep_overhead = query_prep_overhead
        # Per-query budget for blocking clauses.  Graph rows hold live
        # store handles, so blocking stages account bytes but always
        # materialize in memory (the documented fallback) — the budget
        # here tracks peak usage rather than triggering disk spill.
        self.memory_budget = Config.resolve(memory_budget=memory_budget).memory_budget
        self.store = GraphStore()
        #: Prepared queries: text → parsed query.
        self.plan_cache = CompiledQueryCache()

    # ------------------------------------------------------------------
    def load(self, label: str, records: Iterable[dict[str, Any]]) -> int:
        """Create one node per record under *label*."""
        count = 0
        for record in records:
            self.store.create_node(label, record)
            count += 1
        return count

    def create_index(self, label: str, prop: str) -> None:
        self.store.create_index(label, prop)

    def drop_index(self, label: str, prop: str) -> None:
        self.store.drop_index(label, prop)

    def node_count(self, label: str) -> int:
        """Count-store lookup (O(1))."""
        return self.store.counts.node_count(label)

    # ------------------------------------------------------------------
    def execute(
        self,
        cypher: str,
        *,
        params: Sequence[Any] = (),
        analyze: bool = False,
        stream: bool = False,
    ) -> ResultSet:
        """Parse and run a Cypher query, its ``$p<i>`` bound to ``params[i]``.

        With ``analyze=True`` (or inside :func:`repro.obs.analyze_mode`,
        or under tracing) each clause step is profiled and the per-clause
        timing/row-count chain rides on ``ResultSet.op_profile``.

        With ``stream=True`` records are emitted lazily through the
        clause chain (profiling/tracing force materialization — the
        documented fallback); memory stats are final once drained.
        """
        started = time.perf_counter()
        with obs.ambient_span("execute", backend=self.name) as span:
            if self.query_prep_overhead > 0:
                time.sleep(self.query_prep_overhead)
            query, hit = self._prepare(cypher, params)
            stats = QueryStats(plan_cache_hits=int(hit), plan_cache_misses=int(not hit))
            budget = MemoryBudget(self.memory_budget)
            executor = CypherExecutor(self.store, stats, memory=budget)
            want_profile = analyze or span.recording or obs.analyze_active()
            records = executor.run(
                query, profile=want_profile, stream=stream and not want_profile
            )
            profile = executor.last_profile
            if isinstance(records, list):
                stamp_memory(stats, budget)
            if span.recording:
                span.set(
                    rows=len(records),
                    peak_mem_bytes=stats.peak_mem_bytes,
                    spill_bytes=stats.spill_bytes,
                )
                if profile is not None:
                    obs.attach_profile(span, profile)
        plan_text = f"cypher({len(query.clauses)} clauses)"
        elapsed = time.perf_counter() - started
        if not isinstance(records, list):
            return StreamingResultSet(
                drain_with_stats(records, stats, budget),
                stats=stats,
                plan_text=plan_text,
                elapsed_seconds=elapsed,
                op_profile=profile,
            )
        return ResultSet(
            records=records,
            stats=stats,
            plan_text=plan_text,
            elapsed_seconds=elapsed,
            op_profile=profile,
        )

    def _prepare(self, cypher: str, params: Sequence[Any]) -> tuple[CypherQuery, bool]:
        """The parsed query with *params* bound, and whether it was cached."""
        cached = self.plan_cache.lookup(cypher)
        if cached is None:
            query = parse(cypher)
            bind = binder(query, Param, Lit, lambda operand: Un("-", operand))
            self.plan_cache.store(cypher, cypher, (query, bind))
        else:
            query, bind = cached[1]
        return (query if bind is None else bind(params)), cached is not None
