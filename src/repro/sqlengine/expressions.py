"""Runtime expression evaluation for SQL and SQL++.

Rows flow through physical operators as *environments*: dicts mapping a
FROM-clause binding alias to its current record.  ``t.lang`` resolves
through binding ``t``; a bare ``lang`` searches every binding; a bare ``t``
that names a binding yields the whole record (SQL++'s ``SELECT VALUE t``).

This module only walks the syntax tree and resolves columns; what an
operator or function does with its values — NULL / MISSING propagation,
Kleene logic, comparison and arithmetic errors, ``IS NULL`` / ``IS
MISSING`` / ``IS UNKNOWN`` — is :mod:`repro.exec.scalar`'s, under the
``sql`` or ``sqlpp`` row of its dialect table (see
``docs/execution.md#scalar-semantics``).  A key missing from the record
is NULL in SQL and MISSING in SQL++, which is central to benchmark
expression 13.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ExecutionError, PlanningError
from repro.exec import scalar
from repro.sqlengine.ast_nodes import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    IsAbsent,
    Literal,
    Star,
    UnaryOp,
)

Row = Mapping[str, Any]  # binding alias -> record


class Evaluator:
    """Evaluates scalar expressions against binding environments."""

    def __init__(self, dialect: str = "sql") -> None:
        if dialect not in ("sql", "sqlpp"):
            raise ValueError(f"unknown dialect {dialect!r}")
        self.dialect = dialect
        self._ops = ops = scalar.operators(dialect)
        self._binary_ops, self._is = ops.binary, ops.is_
        self._absent_default = ops.dialect.absent

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_column(self, row: Row, ref: ColumnRef) -> Any:
        if ref.qualifier is not None:
            try:
                record = row[ref.qualifier]
            except KeyError:
                raise ExecutionError(
                    f"unknown binding {ref.qualifier!r} in column reference {ref}"
                ) from None
            if not isinstance(record, dict):
                # The binding is a scalar (SELECT VALUE of an expression);
                # qualifying into it is an error in real engines too.
                raise ExecutionError(f"binding {ref.qualifier!r} is not a record")
            return record.get(ref.name, self._absent_default)
        # A bare name may be a binding alias (whole record)...
        if ref.name in row:
            return row[ref.name]
        # ...or an unqualified column searched across bindings.
        for record in row.values():
            if isinstance(record, dict) and ref.name in record:
                return record[ref.name]
        return self._absent_default

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, expr: Expression, row: Row) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            return self.resolve_column(row, expr)
        if isinstance(expr, Star):
            raise PlanningError("* is only valid in a SELECT list")
        if isinstance(expr, BinaryOp):
            return self._binary(expr, row)
        if isinstance(expr, UnaryOp):
            return self._unary(expr, row)
        if isinstance(expr, IsAbsent):
            return self._is[expr.mode][expr.negated](self.evaluate(expr.operand, row), None)
        if isinstance(expr, FuncCall):
            return self._call(expr, row)
        raise ExecutionError(f"cannot evaluate expression node {type(expr).__name__}")

    # Small methods, not branches of ``evaluate``: its frame stays three locals.
    def _binary(self, expr: BinaryOp, row: Row) -> Any:
        apply = self._binary_ops.get(expr.op)
        if apply is None:
            raise ExecutionError(f"unknown binary operator {expr.op!r}")
        return apply(self.evaluate(expr.left, row), self.evaluate(expr.right, row))

    def _unary(self, expr: UnaryOp, row: Row) -> Any:
        if expr.op == "NOT":
            return self._ops.not_(self.evaluate(expr.operand, row), None)
        if expr.op == "-":
            return self._ops.negate(self.evaluate(expr.operand, row), None)
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    def _call(self, expr: FuncCall, row: Row) -> Any:
        name = expr.name.upper()
        if name in AGGREGATE_FUNCTIONS:
            raise PlanningError(f"aggregate {name} must be handled by an aggregation operator")
        args = [self.evaluate(arg, row) for arg in expr.args]
        return self._ops.call(name, len(args))(args, None)

    def truthy(self, value: Any) -> bool:
        """WHERE-clause semantics: only TRUE passes (NULL/MISSING filter out)."""
        return value is True
