"""A sharded MongoDB cluster (mongos-style scatter-gather)."""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.cluster.base import ShardedCluster
from repro.cluster.partial import plan_pipeline
from repro.docstore import MongoDatabase
from repro.sqlengine.result import ResultSet


class MongoDBCluster(ShardedCluster):
    """N mongod shards behind a merging router.

    Compatible with :class:`~repro.core.connectors.MongoDBConnector`
    (``aggregate``, ``has_collection``, ``create_collection``).  As the
    paper notes, ``$lookup`` only joins unsharded data, so on more than
    one node expression 12 raises
    :class:`~repro.errors.UnsupportedOperationError`.  With
    ``replication_factor`` > 1 each shard keeps replica-set-style copies
    on neighbouring nodes and reads fail over between them — see
    ``docs/resilience.md``.  Takes every
    :class:`~repro.cluster.base.ShardedCluster` keyword.
    """

    backend = "mongodb-cluster"

    def _make_engine(self, replica: str, **engine_knobs: Any) -> MongoDatabase:
        return MongoDatabase(name=f"mongod-{replica}", **engine_knobs)

    def create_collection(self, name: str) -> None:
        self._on_every_copy(lambda e: e.create_collection(name), name)

    def has_collection(self, name: str) -> bool:
        return self.nodes[0].has_collection(name)

    def insert_many(
        self,
        collection: str,
        documents: Iterable[dict[str, Any]],
        shard_key: str | None = None,
    ) -> int:
        return self._load(
            collection,
            documents,
            shard_key,
            lambda e, docs: e.collection(collection).insert_many(docs),
        )

    def create_index(self, collection: str, field: str) -> None:
        self._on_every_copy(
            lambda e: e.collection(collection).create_index(field), collection
        )

    def estimated_document_count(self, collection: str) -> int:
        return sum(node.estimated_document_count(collection) for node in self.nodes)

    def aggregate(
        self,
        collection: str,
        pipeline: list[dict[str, Any]],
        *,
        stream: bool = False,
    ) -> ResultSet:
        # $avg/$stdDevPop accumulators make the shards ship partial states
        # instead of local finals; other pipelines pass through unchanged.
        # One node holds all the data: its answer is final as it stands
        # ($lookup included — the paper runs expression 12 on one node).
        shard_pipeline, spec = plan_pipeline(pipeline, sharded=self.num_nodes > 1)
        # Pipelines are parsed JSON; serialize them back (sorted keys) for a
        # stable, hashable cache-key spelling — when there is a cache.
        text = ""
        if self.result_cache is not None:
            text = json.dumps(pipeline, sort_keys=True, default=repr)
        return self._gather(
            lambda engine, **knobs: engine.aggregate(collection, shard_pipeline, **knobs),
            spec,
            text,
            collection,
            stream=stream,
        )
