"""Connector for the embedded PostgreSQL-like SQL engine."""

from __future__ import annotations

from typing import Any

from repro.core.connectors.base import DatabaseConnector, configure_engines
from repro.sqlengine import SQLDatabase
from repro.sqlengine.result import ResultSet


class PostgresConnector(DatabaseConnector):
    """Sends SQL text to a :class:`~repro.sqlengine.SQLDatabase` instance.

    ``exec_engine`` ('row' / 'vector') selects the execution path of the
    wrapped database (every node, for clusters); ``**resilience``
    forwards ``retry_policy``/``timeout``/``circuit_breaker``/
    ``fault_injector`` to :class:`DatabaseConnector`.
    """

    language = "sql"

    def __init__(
        self,
        database: SQLDatabase,
        rule_overrides: dict[str, str] | None = None,
        *,
        exec_engine: str | None = None,
        memory_budget: int | str | None = None,
        **resilience: Any,
    ) -> None:
        super().__init__(rule_overrides, **resilience)
        self._db = database
        configure_engines(database, exec_engine=exec_engine, memory_budget=memory_budget)

    def _execute(self, query: str, collection: str, params: tuple = ()) -> ResultSet:
        return self._db.execute(query, params=params)

    def _execute_stream(self, query: str, collection: str, params: tuple = ()) -> ResultSet:
        return self._db.execute(query, params=params, stream=True)

    def collection_exists(self, namespace: str, collection: str) -> bool:
        return self._db.catalog.has_table(self.qualified_name(namespace, collection))

    def explain(self, query: str) -> str:
        return self._db.explain(query)


    def _create_and_load(self, namespace, target, records):
        """Persist into a new table (CREATE TABLE AS ... semantics)."""
        qualified = self.qualified_name(namespace, target)
        self._db.create_table(qualified)
        self._db.insert(qualified, records)


__all__ = ["PostgresConnector"]
