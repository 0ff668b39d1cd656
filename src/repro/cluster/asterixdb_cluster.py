"""A sharded AsterixDB cluster (scatter-gather over SQL++ nodes)."""

from __future__ import annotations

from typing import Any, Iterable

from repro.cluster.base import SQLShardedCluster
from repro.sqlpp import AsterixDB


class AsterixDBCluster(SQLShardedCluster):
    """N AsterixDB nodes, each holding one shard of every dataset.

    Exposes the same surface as a single :class:`~repro.sqlpp.AsterixDB`
    (``execute``, ``create_dataverse``/``create_dataset``/``load``,
    ``create_index``, ``catalog``) so the standard
    :class:`~repro.core.connectors.AsterixDBConnector` works unchanged.
    With ``replication_factor`` > 1 each shard keeps copies on
    neighbouring nodes and queries fail over between them (AsterixDB's
    replication/fault-tolerance story) — see ``docs/resilience.md``.
    Takes every :class:`~repro.cluster.base.ShardedCluster` keyword.
    """

    backend = "asterixdb-cluster"
    dialect = "sqlpp"

    def _make_engine(self, replica: str, **engine_knobs: Any) -> AsterixDB:
        return AsterixDB(name=f"asterixdb-node{replica}", **engine_knobs)

    def create_dataverse(self, name: str) -> None:
        self._on_every_copy(lambda e: e.create_dataverse(name))

    def has_dataverse(self, name: str) -> bool:
        return self.nodes[0].has_dataverse(name)

    def create_dataset(self, dataverse: str, dataset: str, primary_key: str) -> None:
        self._on_every_copy(
            lambda e: e.create_dataset(dataverse, dataset, primary_key),
            f"{dataverse}.{dataset}",
        )

    def load(
        self,
        qualified_name: str,
        records: Iterable[dict[str, Any]],
        shard_key: str | None = None,
    ) -> int:
        return self._load(
            qualified_name, records, shard_key, lambda e, rows: e.load(qualified_name, rows)
        )
