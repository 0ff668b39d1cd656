"""PolyFrame reproduction: a retargetable query-based approach to scaling dataframes.

This package reproduces the full system from Sinthong & Carey's VLDB 2021
paper: the PolyFrame core (lazy, rewrite-rule-driven dataframes), four
embedded backend database engines (SQL++/AsterixDB, SQL/PostgreSQL,
aggregation pipelines/MongoDB, Cypher/Neo4j), an eager pandas-like baseline,
cluster simulation for the multi-node experiments, the Wisconsin benchmark
data generator, and the 13-expression DataFrame benchmark harness.

Quickstart::

    from repro import AsterixDBConnector, PolyFrame
    from repro.sqlpp import AsterixDB

    adb = AsterixDB()
    adb.create_dataverse("Test")
    adb.create_dataset("Test", "Users", primary_key="id")
    adb.load("Test.Users", records)

    af = PolyFrame("Test", "Users", AsterixDBConnector(adb))
    af[af["lang"] == "en"][["name", "id"]].head(10)
"""

from repro.cache import ResultCache
from repro.config import Config
from repro.core import (
    AsterixDBConnector,
    DatabaseConnector,
    MongoDBConnector,
    Neo4jConnector,
    PolyFrame,
    PolySeries,
    PostgresConnector,
    RewriteEngine,
    RewriteRules,
)
from repro.obs import Tracer, metrics

#: The paper's original library name: PolyFrame is the retargetable AFrame.
AFrame = PolyFrame

__version__ = "1.0.0"

__all__ = [
    "AFrame",
    "AsterixDBConnector",
    "Config",
    "DatabaseConnector",
    "MongoDBConnector",
    "Neo4jConnector",
    "PolyFrame",
    "PolySeries",
    "PostgresConnector",
    "ResultCache",
    "RewriteEngine",
    "RewriteRules",
    "Tracer",
    "__version__",
    "metrics",
]
