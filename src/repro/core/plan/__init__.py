"""Backend-agnostic logical plans for PolyFrame.

This package is the intermediate representation between the dataframe API
and the per-language rewrite rules.  Transformations on
:class:`~repro.core.frame.PolyFrame` record :class:`PlanNode` trees instead
of baking backend query text eagerly; the text is produced lazily — at
action or ``explain()`` time — by walking the plan through the connector's
:class:`~repro.core.rewrite.RewriteEngine` (``compiler``), optionally after
backend-agnostic plan rewrites (``optimizer``) and through a compiled-query
cache (``cache``).

The split mirrors Modin's algebra layer and PyTond's IR: everything above
this package is pandas surface, everything below is the paper's rewrite
rules, and the plan in between is what makes fusion, caching, and true
retargeting (:meth:`PolyFrame.retarget`) possible.
"""

from repro.cache.compiled import CompiledQueryCache
from repro.core.plan.compiler import (
    CompiledQuery,
    CompileRecord,
    compile_plan,
    compile_plan_for,
)
from repro.core.plan.expr import (
    BinaryExpr,
    ColumnExpr,
    Expr,
    IsInExpr,
    LiteralExpr,
    LogicalExpr,
    MapExpr,
    NullCheckExpr,
    OpaqueExpr,
)
from repro.core.plan.nodes import (
    Agg,
    Compute,
    ComputeList,
    Count,
    Distinct,
    Filter,
    GroupAgg,
    Join,
    Limit,
    MultiAgg,
    PlanNode,
    Project,
    RawQuery,
    Scan,
    Sort,
    plan_is_retargetable,
)
from repro.core.plan.optimizer import optimize

__all__ = [
    "Agg",
    "BinaryExpr",
    "ColumnExpr",
    "CompileRecord",
    "CompiledQuery",
    "CompiledQueryCache",
    "Compute",
    "ComputeList",
    "Count",
    "Distinct",
    "Expr",
    "Filter",
    "GroupAgg",
    "IsInExpr",
    "Join",
    "Limit",
    "LiteralExpr",
    "LogicalExpr",
    "MapExpr",
    "MultiAgg",
    "NullCheckExpr",
    "OpaqueExpr",
    "PlanNode",
    "Project",
    "RawQuery",
    "Scan",
    "Sort",
    "compile_plan",
    "compile_plan_for",
    "optimize",
    "plan_is_retargetable",
]
