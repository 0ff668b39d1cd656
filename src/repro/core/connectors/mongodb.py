"""Connector for the embedded MongoDB-like document store.

Pre-processing here is where the paper's MongoDB pipeline construction
happens: the rewritten query text is a comma-separated run of pipeline
stages, which the connector wraps in ``[...]`` and parses as JSON before
handing it to the aggregation executor.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.connectors.base import DatabaseConnector, configure_engines
from repro.docstore import MongoDatabase
from repro.errors import ConnectorError
from repro.sqlengine.result import ResultSet


class MongoDBConnector(DatabaseConnector):
    """Builds aggregation pipelines for a :class:`~repro.docstore.MongoDatabase`."""

    language = "mongo"

    def __init__(
        self,
        database: MongoDatabase,
        rule_overrides: dict[str, str] | None = None,
        *,
        memory_budget: int | str | None = None,
        **resilience: Any,
    ) -> None:
        super().__init__(rule_overrides, **resilience)
        self._db = database
        configure_engines(database, memory_budget=memory_budget)

    def preprocess(self, query: str, collection: str) -> list[dict[str, Any]]:
        """Stage text → pipeline list (JSON parse)."""
        try:
            pipeline = json.loads(f"[{query}]")
        except json.JSONDecodeError as exc:
            raise ConnectorError(
                f"rewritten MongoDB query is not valid pipeline JSON: {exc}\n{query}"
            ) from exc
        if not isinstance(pipeline, list):
            raise ConnectorError("MongoDB pipeline must be a JSON array of stages")
        return pipeline

    def _execute(self, query: str, collection: str) -> ResultSet:
        pipeline = self.preprocess(query, collection)
        return self._db.aggregate(collection, pipeline)

    def _execute_stream(self, query: str, collection: str) -> ResultSet:
        pipeline = self.preprocess(query, collection)
        return self._db.aggregate(collection, pipeline, stream=True)

    def persist(
        self, query: str, source_collection: str, namespace: str, target: str
    ) -> None:
        """Persist natively with a ``$out`` stage (the SAVE RESULTS rule)."""
        staged = self.rewriter.apply("to_collection", subquery=query, collection=target)
        self.send(staged, source_collection)
        self.note_write(target)

    def nesting_depth(self, query: str) -> int:
        """Depth of a pipeline query = number of aggregation stages."""
        try:
            return len(self.preprocess(query, ""))
        except Exception:
            return 1

    def collection_exists(self, namespace: str, collection: str) -> bool:
        # MongoDB namespaces the database itself; only the collection matters.
        return self._db.has_collection(collection)

    def qualified_name(self, namespace: str, collection: str) -> str:
        return collection


__all__ = ["MongoDBConnector"]
