"""PolySeries: a lazily evaluated column or derived expression.

A series carries two representations, mirroring AFrame's design:

- ``statement`` — the language fragment for composing into other
  expressions (filters, logical combinations).  Built *eagerly* from the
  rewrite rules' comparison/logical/arithmetic templates, so composition
  errors (a backend whose rules can't express the operation) surface at
  the line that wrote the expression, not at action time.
- an :class:`~repro.core.plan.Expr` tree recording the same expression
  backend-agnostically.  Plans built from it recompile for any backend
  (:meth:`PolyFrame.retarget`); rendering it reproduces ``statement``
  byte-for-byte.

The series' own underlying ``query`` (a projection of the expression over
the parent frame's plan) is no longer a stored string: it is a logical
plan, compiled lazily when the series itself is the target of an action
(``head()``, aggregates).
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, TYPE_CHECKING

from repro.eager import EagerFrame, frame_from_records
from repro.errors import RewriteError
from repro.resilience.deadline import action_scope
from repro.core.plan.compiler import compile_plan_for, send_compiled
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
    Count,
    Distinct,
    Limit,
    PlanNode,
    Project,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.connectors.base import DatabaseConnector

_MAP_FUNCTIONS: dict[Any, str] = {
    str.upper: "upper",
    str.lower: "lower",
    abs: "abs",
    len: "length",
}

_COMPARISON_RULES = {
    "==": "eq",
    "!=": "ne",
    ">": "gt",
    "<": "lt",
    ">=": "ge",
    "<=": "le",
}

_ARITHMETIC_RULES = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "mod",
}


class PolySeries:
    """A single lazily evaluated column expression."""

    def __init__(
        self,
        connector: "DatabaseConnector",
        collection: str,
        statement: str,
        *,
        attribute: str | None = None,
        alias: str | None = None,
        expr: Expr | None = None,
        base_plan: PlanNode | None = None,
    ) -> None:
        self._connector = connector
        self._collection = collection
        self.statement = statement
        self.attribute = attribute
        self.alias = alias or attribute or "value"
        self._expr = expr
        self._base_plan = base_plan
        if self._expr is None and attribute is not None:
            self._expr = ColumnExpr(attribute)

    @cached_property
    def _plan(self) -> PlanNode | None:
        """The column projected or the expression computed, built on first use."""
        if self._base_plan is None:
            return None
        if self.attribute is not None:
            return Project(self._base_plan, (self.attribute,))
        return Compute(self._base_plan, self._expr, self.alias)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def plan(self) -> PlanNode | None:
        """The series' logical plan, if it has a standalone one."""
        return self._plan

    @property
    def query(self) -> str:
        """The series' own underlying query (compiled lazily)."""
        return compile_plan_for(self._connector, self._require(self._plan)).text

    def _require(self, plan: PlanNode | None) -> PlanNode:
        if plan is None or self._connector is None:
            raise RewriteError("series has no standalone query")
        return plan

    @property
    def _rw(self):
        return self._connector.rewriter

    @property
    def _reference_style(self) -> str:
        return self._connector.rewriter.reference_style

    def __repr__(self) -> str:
        return f"PolySeries({self.alias!r}, statement={self.statement!r})"

    # ------------------------------------------------------------------
    # Expression composition
    # ------------------------------------------------------------------
    def _as_expr(self) -> Expr:
        """This series as a backend-agnostic expression node.

        Series built outside the IR (raw statements) become opaque
        fragments: they still compose and compile on this backend, but pin
        any plan they appear in to it.
        """
        if self._expr is not None:
            return self._expr
        return OpaqueExpr(self.statement)

    def _operand_expr(self, other: Any) -> Expr:
        if isinstance(other, PolySeries):
            return other._as_expr()
        return LiteralExpr(other)

    def _left_operand(self) -> str:
        """What comparison/arithmetic templates receive as ``$left``."""
        if self._reference_style == "attribute":
            if self.attribute is None:
                raise RewriteError(
                    f"the {self._rw.language} rewrite rules reference fields by "
                    "name; only plain columns can be compared (the paper's "
                    "MongoDB configuration has the same shape)"
                )
            return self.attribute
        return self.statement

    def _right_operand(self, other: Any) -> str:
        if isinstance(other, PolySeries):
            if self._reference_style == "attribute":
                if other.attribute is None:
                    raise RewriteError(
                        "field-name rewrite rules require a plain column on "
                        "the right-hand side"
                    )
                return f'"${other.attribute}"'  # a Mongo field path
            return other.statement
        return self._rw.literal(other)

    def _derived(self, statement: str, alias: str, expr: Expr) -> "PolySeries":
        return PolySeries(
            self._connector,
            self._collection,
            statement,
            alias=alias,
            expr=expr,
            base_plan=self._base_plan,
        )

    def _compare(self, op: str, other: Any) -> "PolySeries":
        rule = _COMPARISON_RULES[op]
        statement = self._rw.apply(
            rule, left=self._left_operand(), right=self._right_operand(other)
        )
        expr = BinaryExpr(rule, self._as_expr(), self._operand_expr(other))
        return self._derived(statement, alias=f"{self.alias}_{rule}", expr=expr)

    def __eq__(self, other: Any) -> "PolySeries":  # type: ignore[override]
        return self._compare("==", other)

    def __ne__(self, other: Any) -> "PolySeries":  # type: ignore[override]
        return self._compare("!=", other)

    def __hash__(self) -> int:
        return id(self)

    def __gt__(self, other: Any) -> "PolySeries":
        return self._compare(">", other)

    def __lt__(self, other: Any) -> "PolySeries":
        return self._compare("<", other)

    def __ge__(self, other: Any) -> "PolySeries":
        return self._compare(">=", other)

    def __le__(self, other: Any) -> "PolySeries":
        return self._compare("<=", other)

    def _logical(self, rule: str, other: "PolySeries | None") -> "PolySeries":
        if other is None:
            statement = self._rw.apply(rule, left=self.statement)
            expr: Expr = LogicalExpr(rule, self._as_expr())
        else:
            if not isinstance(other, PolySeries):
                raise TypeError("logical operators require another PolySeries")
            statement = self._rw.apply(rule, left=self.statement, right=other.statement)
            expr = LogicalExpr(rule, self._as_expr(), other._as_expr())
        return self._derived(statement, alias=f"{self.alias}_{rule}", expr=expr)

    def __and__(self, other: "PolySeries") -> "PolySeries":
        return self._logical("and", other)

    def __or__(self, other: "PolySeries") -> "PolySeries":
        return self._logical("or", other)

    def __invert__(self) -> "PolySeries":
        return self._logical("not", None)

    def _arith(self, op: str, other: Any) -> "PolySeries":
        rule = _ARITHMETIC_RULES[op]
        statement = self._rw.apply(
            rule, left=self._left_operand(), right=self._right_operand(other)
        )
        expr = BinaryExpr(rule, self._as_expr(), self._operand_expr(other))
        return self._derived(statement, alias=f"{self.alias}_{rule}", expr=expr)

    def __add__(self, other: Any) -> "PolySeries":
        return self._arith("+", other)

    def __sub__(self, other: Any) -> "PolySeries":
        return self._arith("-", other)

    def __mul__(self, other: Any) -> "PolySeries":
        return self._arith("*", other)

    def __truediv__(self, other: Any) -> "PolySeries":
        return self._arith("/", other)

    def __mod__(self, other: Any) -> "PolySeries":
        return self._arith("%", other)

    # ------------------------------------------------------------------
    # Pandas-style column methods (transformations)
    # ------------------------------------------------------------------
    def map(self, func: "Callable | str") -> "PolySeries":
        """Apply a scalar function lazily (expression 5's ``str.upper``).

        Accepts one of the supported callables (``str.upper``, ``str.lower``,
        ``abs``, ``len``) or the rewrite-rule name directly.
        """
        rule = _MAP_FUNCTIONS.get(func, func if isinstance(func, str) else None)
        if rule is None or not self._rw.has_rule(rule):
            raise RewriteError(f"no scalar-function rewrite rule for {func!r}")
        if self._reference_style == "attribute":
            if self.attribute is None:
                raise RewriteError("field-name rewrite rules can only map plain columns")
            statement = self._rw.apply(rule, attribute=self.attribute)
        else:
            statement = self._rw.apply(rule, operand=self.statement)
        expr = MapExpr(rule, self._as_expr())
        derived = self._derived(statement, alias=self.alias, expr=expr)
        # Mapping applies to the already projected column, mirroring the
        # paper's two-stage translations (project, then compute).
        derived._plan = Compute(self._plan, expr, self.alias) if self._plan is not None else None
        return derived

    def isin(self, values: list[Any]) -> "PolySeries":
        """Boolean mask of membership in *values* (``Series.isin``).

        Rendered through the ``isin`` comparison rule, so each backend gets
        its native membership form (``IN (...)``, ``$in``, ``IN [...]``).
        """
        if not values:
            raise RewriteError("isin() requires at least one value")
        rendered = self._rw.join_list([self._rw.literal(value) for value in values])
        statement = self._rw.apply("isin", left=self._left_operand(), list=rendered)
        expr = IsInExpr(self._as_expr(), tuple(values))
        return self._derived(statement, alias=f"{self.alias}_isin", expr=expr)

    def isna(self) -> "PolySeries":
        """Boolean mask of absent values (expression 13)."""
        statement = self._rw.apply("isnull", left=self._left_operand())
        expr = NullCheckExpr("isnull", self._as_expr())
        return self._derived(statement, alias=f"{self.alias}_isnull", expr=expr)

    def notna(self) -> "PolySeries":
        statement = self._rw.apply("notnull", left=self._left_operand())
        expr = NullCheckExpr("notnull", self._as_expr())
        return self._derived(statement, alias=f"{self.alias}_notnull", expr=expr)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def _action_span(self, op: str) -> action_scope:
        """The scope every action runs in, like :meth:`PolyFrame._action_span`."""
        return action_scope(self._connector, op, self._collection)

    def _send(self, plan: PlanNode, terminal: str | None = None):
        compiled = compile_plan_for(self._connector, plan, terminal=terminal)
        return send_compiled(self._connector, compiled, self._collection)

    def head(self, n: int = 5) -> EagerFrame:
        """Evaluate the series' query with a LIMIT and return results."""
        with self._action_span("head"):
            result = self._send(Limit(self._require(self._plan), n))
            records = self._connector.postprocess(result)
        frame = frame_from_records(records)
        if frame.columns == ["value"]:
            frame = frame.rename({"value": self.alias})
        return frame

    def _aggregate(self, func: str) -> Any:
        if self.attribute is None:
            raise RewriteError("aggregates require a plain column")
        agg_alias = f"{func}_{self.attribute}"
        with self._action_span(func):
            plan = Agg(self._require(self._plan), func, self.attribute, agg_alias)
            return self._send(plan, "return_all").scalar()

    def max(self) -> Any:
        return self._aggregate("max")

    def min(self) -> Any:
        return self._aggregate("min")

    def mean(self) -> Any:
        return self._aggregate("avg")

    def sum(self) -> Any:
        return self._aggregate("sum")

    def count(self) -> Any:
        return self._aggregate("count")

    def std(self) -> Any:
        return self._aggregate("std")

    def unique(self) -> list[Any]:
        """Distinct values of the column (a generic-rule building block)."""
        if self.attribute is None:
            raise RewriteError("unique() requires a plain column")
        with self._action_span("unique"):
            plan = Distinct(self._require(self._base_plan), self.attribute)
            result = self._send(plan, "return_all")
        values = []
        for record in result.records:
            if isinstance(record, dict):
                values.append(record.get(self.attribute))
            else:
                values.append(record)
        return values

    def nunique(self) -> int:
        """Number of distinct values — a pure rule composition (q3 over q14).

        No backend needs a dedicated rule: the count rule wraps the
        distinct-values rule, exactly the generic-rule chaining the paper
        describes.
        """
        if self.attribute is None:
            raise RewriteError("nunique() requires a plain column")
        with self._action_span("nunique"):
            plan = Count(Distinct(self._require(self._base_plan), self.attribute))
            return int(self._send(plan).scalar())
