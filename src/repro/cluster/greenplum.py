"""Greenplum: sharded PostgreSQL with an older planner.

The paper's Greenplum observations (Figures 9/10) come from it embedding
PostgreSQL 9.5: no index-only scans (expressions 6/7) and no backward index
scans (expression 9 table-scans instead).  This cluster wraps SQL nodes
configured with :meth:`OptimizerFeatures.greenplum`, which switches exactly
those two features off.

With ``replication_factor`` > 1 each shard also keeps copies on the next
nodes over (chained declustering); queries fail over and hedge between
copies — see ``docs/resilience.md``.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.cluster.base import SQLShardedCluster
from repro.sqlengine import OptimizerFeatures, SQLDatabase

#: Greenplum's per-query dispatch overhead (motion planning, QD→QE setup).
DEFAULT_PREP_OVERHEAD = 0.0002


class GreenplumCluster(SQLShardedCluster):
    """N PostgreSQL-9.5-like segments behind a scatter-gather coordinator.

    Beyond ``features`` and ``exec_engine`` it takes every
    :class:`~repro.cluster.base.ShardedCluster` keyword.
    """

    backend = "greenplum"
    dialect = "sql"

    def __init__(
        self,
        num_nodes: int,
        *,
        features: OptimizerFeatures | None = None,
        exec_engine: str | None = None,
        **cluster_knobs: Any,
    ) -> None:
        self.features = features if features is not None else OptimizerFeatures.greenplum()
        self._exec_engine = exec_engine
        super().__init__(num_nodes, **cluster_knobs)

    def _make_engine(
        self,
        replica: str,
        query_prep_overhead: float = DEFAULT_PREP_OVERHEAD,
        **engine_knobs: Any,
    ) -> SQLDatabase:
        return SQLDatabase(
            self.features,
            query_prep_overhead=query_prep_overhead,
            name=f"greenplum-seg{replica}",
            exec_engine=self._exec_engine,
            **engine_knobs,
        )

    def create_table(self, name: str, columns: Iterable[str] | None = None, primary_key: str | None = None) -> None:
        self._on_every_copy(lambda e: e.create_table(name, columns, primary_key), name)

    def insert(
        self,
        table: str,
        records: Iterable[dict[str, Any]],
        shard_key: str | None = None,
    ) -> int:
        return self._load(table, records, shard_key, lambda e, rows: e.insert(table, rows))

    def explain(self, query_text: str) -> str:
        return self.nodes[0].explain(query_text)
