"""PolyFrame core: the paper's primary contribution.

A pandas-like dataframe whose operations are incrementally translated into
composable queries through pluggable language rewrite rules, evaluated
lazily by whichever backend database the connector targets.
"""

from repro.core.frame import PolyFrame
from repro.core.generic import describe, get_dummies, value_counts
from repro.core.groupby import PolyFrameGroupBy
from repro.core.plan import (
    CompiledQuery,
    CompiledQueryCache,
    PlanNode,
    compile_plan,
    compile_plan_for,
    plan_is_retargetable,
)
from repro.core.rewrite import RewriteEngine, RewriteRules, load_builtin
from repro.core.series import PolySeries
from repro.core.connectors import (
    AsterixDBConnector,
    DatabaseConnector,
    MongoDBConnector,
    Neo4jConnector,
    PostgresConnector,
)

__all__ = [
    "AsterixDBConnector",
    "CompiledQuery",
    "CompiledQueryCache",
    "DatabaseConnector",
    "MongoDBConnector",
    "Neo4jConnector",
    "PlanNode",
    "PolyFrame",
    "PolyFrameGroupBy",
    "PolySeries",
    "PostgresConnector",
    "RewriteEngine",
    "RewriteRules",
    "compile_plan",
    "compile_plan_for",
    "describe",
    "get_dummies",
    "load_builtin",
    "plan_is_retargetable",
    "value_counts",
]
