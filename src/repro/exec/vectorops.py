"""Vectorized expression evaluation over :class:`ColumnBatch` inputs.

One :class:`VectorEvaluator` call evaluates an expression for every row
of a batch at once, dispatching on the AST *once per batch* instead of
once per row — the interpreter-overhead win the row evaluator cannot
have.  The semantics are not this module's: every operator, ``IS`` form
and scalar function is a batch kernel of :mod:`repro.exec.scalar`, which
maps the row evaluator's own value functions over any slot that is NULL
or MISSING (or where the C-level fast path raised), so the two answer
and fail alike by construction (``docs/execution.md#scalar-semantics``).
WHERE truthiness admits only ``True``.
"""

from __future__ import annotations

from repro.errors import ExecutionError, PlanningError
from repro.exec import scalar
from repro.exec.batch import (
    MASK_MISSING,
    MASK_NULL,
    MASK_VALID,
    ColumnBatch,
    Vector,
)
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


class VectorEvaluator:
    """Evaluates scalar expressions batch-at-a-time."""

    def __init__(self, dialect: str = "sql") -> None:
        if dialect not in ("sql", "sqlpp"):
            raise ValueError(f"unknown dialect {dialect!r}")
        self.dialect = dialect
        self._ops = scalar.operators(dialect)
        # A missing attribute is NULL in SQL, MISSING in SQL++.
        self._absent_state = MASK_MISSING if dialect == "sqlpp" else MASK_NULL

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def evaluate(self, expr: Expression, batch: ColumnBatch) -> Vector:
        if isinstance(expr, Literal):
            return Vector.broadcast(expr.value, batch.length)
        if isinstance(expr, ColumnRef):
            return self.resolve_column(batch, expr)
        if isinstance(expr, Star):
            raise PlanningError("* is only valid in a SELECT list")
        if isinstance(expr, BinaryOp):
            return self._binary(expr, batch)
        if isinstance(expr, UnaryOp):
            return self._unary(expr, batch)
        if isinstance(expr, IsAbsent):
            return self._is_absent(expr, batch)
        if isinstance(expr, FuncCall):
            return self._call(expr, batch)
        raise ExecutionError(f"cannot evaluate expression node {type(expr).__name__}")

    def true_indices(self, vector: Vector) -> list[int]:
        """Row positions passing WHERE semantics (only TRUE passes)."""
        values = vector.values
        if vector.mask is None:
            return [i for i, value in enumerate(values) if value is True]
        mask = vector.mask
        return [
            i
            for i, value in enumerate(values)
            if mask[i] == MASK_VALID and value is True
        ]

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_column(self, batch: ColumnBatch, ref: ColumnRef) -> Vector:
        if ref.qualifier is not None and ref.qualifier != batch.alias:
            raise ExecutionError(
                f"unknown binding {ref.qualifier!r} in column reference {ref}"
            )
        if ref.qualifier is None and ref.name == batch.alias:
            # A bare name matching the binding yields the whole record
            # (SQL++'s ``SELECT VALUE t``).
            return Vector([batch.row_record(i) for i in range(batch.length)], None)
        vector = batch.columns.get(ref.name)
        if vector is None:
            mask_state = (
                MASK_NULL if ref.qualifier is not None and self.dialect == "sql"
                else self._absent_state
            )
            return Vector(
                [None] * batch.length, bytearray([mask_state]) * batch.length
            )
        if self.dialect == "sql" and vector.mask is not None:
            # SQL has no MISSING: absent attributes surface as NULL.
            if MASK_MISSING in vector.mask:
                mask = bytearray(
                    MASK_NULL if state == MASK_MISSING else state
                    for state in vector.mask
                )
                return Vector(vector.values, mask)
        return vector

    # ------------------------------------------------------------------
    # Operators and functions: the scalar kernels
    # ------------------------------------------------------------------
    def _binary(self, expr: BinaryOp, batch: ColumnBatch) -> Vector:
        kernel = self._ops.batch_binary.get(expr.op)
        if kernel is None:
            raise ExecutionError(f"unknown binary operator {expr.op!r}")
        return kernel(self.evaluate(expr.left, batch), self.evaluate(expr.right, batch))

    def _unary(self, expr: UnaryOp, batch: ColumnBatch) -> Vector:
        vector = self.evaluate(expr.operand, batch)
        if expr.op == "NOT":
            return self._ops.batch_not(vector)
        if expr.op == "-":
            return self._ops.batch_negate(vector)
        raise ExecutionError(f"unknown unary operator {expr.op!r}")

    def _is_absent(self, expr: IsAbsent, batch: ColumnBatch) -> Vector:
        vector = self.evaluate(expr.operand, batch)
        return self._ops.batch_is(expr.mode, expr.negated, vector)

    def _call(self, expr: FuncCall, batch: ColumnBatch) -> Vector:
        name = expr.name.upper()
        if name in AGGREGATE_FUNCTIONS:
            raise PlanningError(
                f"aggregate {name} must be handled by an aggregation operator"
            )
        args = [self.evaluate(arg, batch) for arg in expr.args]
        return self._ops.batch_call(name, args, batch.length)
