"""Connector for the embedded Neo4j-like graph database."""

from __future__ import annotations

from typing import Any

from repro.core.connectors.base import DatabaseConnector, configure_engines
from repro.graphdb import Neo4jDatabase
from repro.sqlengine.result import ResultSet


class Neo4jConnector(DatabaseConnector):
    """Sends Cypher text to a :class:`~repro.graphdb.Neo4jDatabase`.

    The 'collection' is a node label; namespaces do not exist in Neo4j, so
    the qualified name is just the label.  ``**resilience`` forwards
    ``retry_policy``/``timeout``/``circuit_breaker``/``fault_injector`` to
    :class:`DatabaseConnector`.
    """

    language = "cypher"

    def __init__(
        self,
        database: Neo4jDatabase,
        rule_overrides: dict[str, str] | None = None,
        *,
        memory_budget: int | str | None = None,
        **resilience: Any,
    ) -> None:
        super().__init__(rule_overrides, **resilience)
        self._db = database
        configure_engines(database, memory_budget=memory_budget)

    def _execute(self, query: str, collection: str, params: tuple = ()) -> ResultSet:
        return self._db.execute(query, params=params)

    def _execute_stream(self, query: str, collection: str, params: tuple = ()) -> ResultSet:
        return self._db.execute(query, params=params, stream=True)

    def nesting_depth(self, query: str) -> int:
        """Cypher chains clauses flat; depth = number of clause lines."""
        return sum(1 for line in query.splitlines() if line.strip()) or 1

    def collection_exists(self, namespace: str, collection: str) -> bool:
        return self._db.node_count(collection) > 0

    def qualified_name(self, namespace: str, collection: str) -> str:
        return collection


    def _create_and_load(self, namespace, target, records):
        """Persist as nodes under a new label."""
        self._db.load(target, records)


__all__ = ["Neo4jConnector"]
