"""Connector for the embedded AsterixDB (SQL++) engine."""

from __future__ import annotations

from typing import Any

from repro.core.connectors.base import DatabaseConnector, configure_engines
from repro.sqlengine.result import ResultSet
from repro.sqlpp import AsterixDB


class AsterixDBConnector(DatabaseConnector):
    """Sends SQL++ text to an :class:`~repro.sqlpp.AsterixDB` instance.

    ``exec_engine`` ('row' / 'vector') selects the execution path of the
    wrapped database (every node, for clusters); ``**resilience``
    forwards ``retry_policy``/``timeout``/``circuit_breaker``/
    ``fault_injector`` to :class:`DatabaseConnector`.
    """

    language = "sqlpp"

    def __init__(
        self,
        database: AsterixDB,
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
        """Backend plan for *query* (useful when inspecting optimizations)."""
        return self._db.explain(query)


    def _create_and_load(self, namespace, target, records):
        """Persist into a new dataset keyed by a synthetic id."""
        if not self._db.has_dataverse(namespace):
            self._db.create_dataverse(namespace)
        self._db.create_dataset(namespace, target, primary_key="_persist_id")
        qualified = self.qualified_name(namespace, target)
        self._db.load(
            qualified,
            [dict(record, _persist_id=index) for index, record in enumerate(records)],
        )


__all__ = ["AsterixDBConnector"]
