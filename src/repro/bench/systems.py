"""Construction of the systems under test.

``build_systems`` loads one Wisconsin dataset (plus the identical ``data2``
copy used by the join expression) into every backend and returns a
:class:`SystemUnderTest` per system.  Database loading is *not* part of any
timing point — as in the paper, the data already lives in each database and
only DataFrame creation + expression evaluation are measured.  The Pandas
system reads the data from a JSON file, which *is* its creation cost.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

from repro import (
    AsterixDBConnector,
    MongoDBConnector,
    Neo4jConnector,
    PolyFrame,
    PostgresConnector,
)
from repro.bench.datasets import pandas_memory_budget
from repro.cluster import AsterixDBCluster, GreenplumCluster, MongoDBCluster
from repro.docstore import MongoDatabase
from repro.eager import read_json
from repro.graphdb import Neo4jDatabase
from repro.sqlengine import SQLDatabase
from repro.sqlpp import AsterixDB
from repro.wisconsin import WisconsinGenerator, loaders

NAMESPACE = "Bench"
DATASET = "data"
DATASET2 = "data2"

SINGLE_NODE_SYSTEMS = (
    "Pandas",
    "PolyFrame-AsterixDB",
    "PolyFrame-PostgreSQL",
    "PolyFrame-MongoDB",
    "PolyFrame-Neo4j",
)

CLUSTER_SYSTEMS = (
    "PolyFrame-AsterixDB",
    "PolyFrame-MongoDB",
    "PolyFrame-Greenplum",
)


@dataclass
class SystemUnderTest:
    """One benchmarkable system: a timed frame factory plus metadata."""

    name: str
    kind: str  # 'pandas' | 'polyframe'
    create_frames: Callable[[], tuple[Any, Any]]
    memory_budget: int | None = None
    engine: Any = None  # underlying database (for plan inspection)
    connector: Any = None  # PolyFrame connector (for send-timing records)


def _wisconsin(num_records: int, seed: int) -> list[dict[str, Any]]:
    if num_records == 0:
        return []
    return WisconsinGenerator(num_records, seed=seed).records()


def build_systems(
    num_records: int,
    workdir: str | os.PathLike,
    *,
    which: tuple[str, ...] = SINGLE_NODE_SYSTEMS,
    seed: int = 2021,
    prep_overheads: bool = True,
    indexes: bool = True,
    xs_records_for_budget: int | None = None,
) -> dict[str, SystemUnderTest]:
    """Load the dataset everywhere and return the requested systems.

    ``num_records == 0`` builds the 'Empty' baseline the paper uses to show
    fixed query-preparation overheads for expressions 2 and 10.  Building
    ``Pandas`` needs ``xs_records_for_budget``: the XS record count its
    memory budget is sized from (:func:`pandas_memory_budget`).
    """
    records = _wisconsin(num_records, seed)
    empty = not records
    systems: dict[str, SystemUnderTest] = {}
    overhead: dict[str, float] = {} if prep_overheads else {"query_prep_overhead": 0.0}

    if "Pandas" in which:
        if xs_records_for_budget is None:
            raise TypeError("building Pandas needs xs_records_for_budget, its budget's XS count")
        path = os.path.join(workdir, f"wisconsin_{num_records}.json")
        if not os.path.exists(path):
            WisconsinGenerator(max(num_records, 1), seed=seed).write_json(path)
            if empty:
                open(path, "w").close()
        budget = pandas_memory_budget(xs_records_for_budget)

        def create_pandas(path: str = path) -> tuple[Any, Any]:
            return read_json(path), read_json(path)

        systems["Pandas"] = SystemUnderTest(
            "Pandas", "pandas", create_pandas, memory_budget=budget
        )

    if "PolyFrame-AsterixDB" in which:
        adb = AsterixDB(**overhead)
        loaders.load_asterixdb(adb, NAMESPACE, DATASET, records, indexes=indexes)
        loaders.load_asterixdb(adb, NAMESPACE, DATASET2, records, indexes=indexes)
        systems["PolyFrame-AsterixDB"] = _poly_system(
            "PolyFrame-AsterixDB", AsterixDBConnector(adb), empty, engine=adb
        )

    if "PolyFrame-PostgreSQL" in which:
        pg = SQLDatabase(name="postgres")
        loaders.load_postgres(pg, NAMESPACE, DATASET, records, indexes=indexes)
        loaders.load_postgres(pg, NAMESPACE, DATASET2, records, indexes=indexes)
        systems["PolyFrame-PostgreSQL"] = _poly_system(
            "PolyFrame-PostgreSQL", PostgresConnector(pg), empty, engine=pg
        )

    if "PolyFrame-MongoDB" in which:
        mongo = MongoDatabase(**overhead)
        loaders.load_mongodb(mongo, DATASET, records, indexes=indexes)
        loaders.load_mongodb(mongo, DATASET2, records, indexes=indexes)
        systems["PolyFrame-MongoDB"] = _poly_system(
            "PolyFrame-MongoDB", MongoDBConnector(mongo), empty, engine=mongo
        )

    if "PolyFrame-Neo4j" in which:
        neo = Neo4jDatabase(**overhead)
        loaders.load_neo4j(neo, DATASET, records, indexes=indexes)
        loaders.load_neo4j(neo, DATASET2, records, indexes=indexes)
        systems["PolyFrame-Neo4j"] = _poly_system(
            "PolyFrame-Neo4j", Neo4jConnector(neo), empty, engine=neo
        )

    return systems


def build_cluster_systems(
    num_nodes: int,
    num_records: int,
    *,
    which: tuple[str, ...] = CLUSTER_SYSTEMS,
    seed: int = 2021,
    shard_key: str = "unique1",
    replication_factor: int | None = None,
    fault_injector: Any = None,
    retry_policy: Any = None,
    hedge: Any = None,
    quorum_reads: bool = False,
    dispatch: Any = None,
    query_prep_overhead: float | None = None,
) -> dict[str, SystemUnderTest]:
    """Systems for the speedup/scaleup experiments (Figures 9 and 10).

    ``replication_factor``/``fault_injector``/``retry_policy``/``hedge``/
    ``quorum_reads`` flow into every cluster — the availability bench and
    the chaos tests use them to run the full benchmark suite against
    replicated clusters under seeded faults.  ``dispatch`` selects the
    shard dispatcher (``'serial'``/``'threads'``/a
    :class:`~repro.cluster.dispatch.Dispatcher`); ``query_prep_overhead``
    overrides each node's simulated per-query prep cost — the parallel
    speedup bench raises it so real thread-level overlap is measurable.
    """
    records = _wisconsin(num_records, seed)
    systems: dict[str, SystemUnderTest] = {}
    cluster_kwargs: dict[str, Any] = {
        "replication_factor": replication_factor,
        "fault_injector": fault_injector,
        "retry_policy": retry_policy,
        "hedge": hedge,
        "quorum_reads": quorum_reads,
        "dispatch": dispatch,
    }
    if query_prep_overhead is not None:
        cluster_kwargs["query_prep_overhead"] = query_prep_overhead

    if "PolyFrame-AsterixDB" in which:
        cluster = AsterixDBCluster(num_nodes, **cluster_kwargs)
        cluster.create_dataverse(NAMESPACE)
        for dataset in (DATASET, DATASET2):
            cluster.create_dataset(NAMESPACE, dataset, primary_key=loaders.PRIMARY_KEY)
            cluster.load(f"{NAMESPACE}.{dataset}", records, shard_key=shard_key)
            for column in loaders.BENCHMARK_INDEX_COLUMNS:
                cluster.create_index(f"{NAMESPACE}.{dataset}", column)
        systems["PolyFrame-AsterixDB"] = _poly_system(
            "PolyFrame-AsterixDB", AsterixDBConnector(cluster), not records, engine=cluster
        )

    if "PolyFrame-MongoDB" in which:
        cluster = MongoDBCluster(num_nodes, **cluster_kwargs)
        for dataset in (DATASET, DATASET2):
            cluster.create_collection(dataset)
            cluster.insert_many(dataset, records, shard_key=shard_key)
            for column in loaders.BENCHMARK_INDEX_COLUMNS:
                cluster.create_index(dataset, column)
        systems["PolyFrame-MongoDB"] = _poly_system(
            "PolyFrame-MongoDB", MongoDBConnector(cluster), not records, engine=cluster
        )

    if "PolyFrame-Greenplum" in which:
        cluster = GreenplumCluster(num_nodes, **cluster_kwargs)
        for dataset in (DATASET, DATASET2):
            qualified = f"{NAMESPACE}.{dataset}"
            cluster.create_table(qualified, primary_key=loaders.PRIMARY_KEY)
            cluster.insert(qualified, records, shard_key=shard_key)
            for column in loaders.BENCHMARK_INDEX_COLUMNS:
                cluster.create_index(qualified, column)
            cluster.analyze(qualified)
        systems["PolyFrame-Greenplum"] = _poly_system(
            "PolyFrame-Greenplum", PostgresConnector(cluster), not records, engine=cluster
        )

    return systems


def _poly_system(name: str, connector: Any, empty: bool, engine: Any) -> SystemUnderTest:
    def create() -> tuple[Any, Any]:
        df = PolyFrame(NAMESPACE, DATASET, connector, validate=not empty)
        df2 = PolyFrame(NAMESPACE, DATASET2, connector, validate=not empty)
        return df, df2

    return SystemUnderTest(name, "polyframe", create, engine=engine, connector=connector)
