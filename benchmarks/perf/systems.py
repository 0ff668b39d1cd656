"""Set-up: generate Wisconsin data, load and index it, build connectors.

Everything goes through the public surface a user would call.  Engines
and clusters are built with ``query_prep_overhead=0.0``: the simulated
per-query sleeps are not program work.  Feature knobs are never passed
here — they arrive as ``REPRO_*`` environment variables, set by ``run.py``
before anything is constructed.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from cells import DATA, DATA2, DATA_SEED, NAMESPACE, NUM_SHARDS, Workload
from repro import (
    AsterixDBConnector,
    MongoDBConnector,
    Neo4jConnector,
    PostgresConnector,
)
from repro.cluster import AsterixDBCluster, GreenplumCluster, MongoDBCluster
from repro.docstore import MongoDatabase
from repro.graphdb import Neo4jDatabase
from repro.sqlengine import SQLDatabase
from repro.sqlpp import AsterixDB
from repro.wisconsin import (
    BENCHMARK_INDEX_COLUMNS,
    WISCONSIN_ATTRIBUTES,
    load_asterixdb,
    load_mongodb,
    load_neo4j,
    load_postgres,
    wisconsin_records,
)

PRIMARY_KEY = "unique2"
SHARD_KEY = "unique1"


@dataclass
class System:
    """One backend under test: its engine, its connector and its shards."""

    backend: str
    engine: Any
    connector: Any
    call: str  # the engine method the connector calls: 'execute' | 'aggregate'
    shards: list[Any] = field(default_factory=list)
    twin: Any = None  # cache-off connector over the same engine

    def append(self, record: dict[str, Any]) -> int:
        """Append one record to ``data2`` by the documented write path."""
        qualified = self.connector.qualified_name(NAMESPACE, DATA2)
        if self.backend == "postgres":
            row = {name: record.get(name) for name in WISCONSIN_ATTRIBUTES}
            count = self.engine.insert(qualified, [row])
        elif self.backend == "asterixdb":
            count = self.engine.load(qualified, [record])
        elif self.backend == "mongodb":
            count = self.engine.collection(DATA2).insert_many([record])
        else:
            count = self.engine.load(DATA2, [record])
        self.connector.note_write(qualified, DATA2)
        return count


def appended_record(rows: int, serial: int) -> dict[str, Any]:
    """A record beyond the generated key range, in the generator's shape."""
    unique = rows + serial
    one_percent = unique % 100
    record = {
        "unique1": unique,
        "unique2": unique,
        "two": unique % 2,
        "four": unique % 4,
        "ten": unique % 10,
        "twenty": unique % 20,
        "onePercent": one_percent,
        "tenPercent": unique % 10,
        "twentyPercent": unique % 5,
        "fiftyPercent": unique % 2,
        "unique3": unique,
        "evenOnePercent": one_percent * 2,
        "oddOnePercent": one_percent * 2 + 1,
        "stringu1": f"APPEND{serial:07d}".ljust(52, "x"),
        "stringu2": f"APPEND{serial:07d}".ljust(52, "x"),
        "string4": "AAAA".ljust(52, "x"),
    }
    if unique % 10 == 0:
        del record["tenPercent"]  # the generator's missing-value rule
    return record


@contextmanager
def _without_env(name: str) -> Iterator[None]:
    saved = os.environ.pop(name, None)
    try:
        yield
    finally:
        if saved is not None:
            os.environ[name] = saved


def _single(backend: str, records: list[dict[str, Any]]) -> System:
    if backend == "postgres":
        db = SQLDatabase(name="postgres", query_prep_overhead=0.0)
        for dataset in (DATA, DATA2):
            load_postgres(db, NAMESPACE, dataset, records)
        return System(backend, db, PostgresConnector(db), "execute")
    if backend == "asterixdb":
        db = AsterixDB(query_prep_overhead=0.0)
        for dataset in (DATA, DATA2):
            load_asterixdb(db, NAMESPACE, dataset, records)
        return System(backend, db, AsterixDBConnector(db), "execute")
    if backend == "mongodb":
        db = MongoDatabase(query_prep_overhead=0.0)
        for dataset in (DATA, DATA2):
            load_mongodb(db, dataset, records)
        return System(backend, db, MongoDBConnector(db), "aggregate")
    db = Neo4jDatabase(query_prep_overhead=0.0)
    for dataset in (DATA, DATA2):
        load_neo4j(db, dataset, records)
    return System(backend, db, Neo4jConnector(db), "execute")


def _sharded(backend: str, records: list[dict[str, Any]]) -> System:
    if backend == "greenplum":
        cluster = GreenplumCluster(NUM_SHARDS, query_prep_overhead=0.0)
        for dataset in (DATA, DATA2):
            qualified = f"{NAMESPACE}.{dataset}"
            cluster.create_table(qualified, primary_key=PRIMARY_KEY)
            cluster.insert(qualified, records, shard_key=SHARD_KEY)
            for column in BENCHMARK_INDEX_COLUMNS:
                cluster.create_index(qualified, column)
            cluster.analyze(qualified)
        connector, call = PostgresConnector(cluster), "execute"
    elif backend == "asterixdb":
        cluster = AsterixDBCluster(NUM_SHARDS, query_prep_overhead=0.0)
        cluster.create_dataverse(NAMESPACE)
        for dataset in (DATA, DATA2):
            qualified = f"{NAMESPACE}.{dataset}"
            cluster.create_dataset(NAMESPACE, dataset, primary_key=PRIMARY_KEY)
            cluster.load(qualified, records, shard_key=SHARD_KEY)
            for column in BENCHMARK_INDEX_COLUMNS:
                cluster.create_index(qualified, column)
        connector, call = AsterixDBConnector(cluster), "execute"
    else:
        cluster = MongoDBCluster(NUM_SHARDS, query_prep_overhead=0.0)
        for dataset in (DATA, DATA2):
            cluster.create_collection(dataset)
            cluster.insert_many(dataset, records, shard_key=SHARD_KEY)
            for column in BENCHMARK_INDEX_COLUMNS:
                cluster.create_index(dataset, column)
        connector, call = MongoDBConnector(cluster), "aggregate"
    return System(backend, cluster, connector, call, shards=list(cluster.nodes))


_TWIN_CONNECTORS = {
    "postgres": PostgresConnector,
    "asterixdb": AsterixDBConnector,
    "mongodb": MongoDBConnector,
    "neo4j": Neo4jConnector,
}


def build_systems(
    workload: Workload, rows: int
) -> tuple[list[dict[str, Any]], dict[str, System]]:
    """Generate *rows* Wisconsin records and load them into every backend.

    Both datasets are identical copies with all benchmark indexes.  When
    the result cache is on (by environment), each system also gets a
    cache-off twin connector over the same engine, built while the
    environment variable is hidden.
    """
    records = wisconsin_records(rows, seed=DATA_SEED)
    build = _sharded if workload.sharded else _single
    systems = {backend: build(backend, records) for backend in workload.backends}
    if any(system.connector.result_cache is not None for system in systems.values()):
        with _without_env("REPRO_CACHE"):
            for system in systems.values():
                system.twin = _TWIN_CONNECTORS[system.backend](system.engine)
    return records, systems
