"""Unit tests for the SQL/SQL++ expression evaluator (three-valued logic)."""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError, PlanningError
from repro.sqlengine.ast_nodes import (
    BinaryOp,
    ColumnRef,
    FuncCall,
    IsAbsent,
    Literal,
    Star,
    UnaryOp,
)
from repro.exec.scalar import operators
from repro.sqlengine.expressions import Evaluator
from repro.sqlengine.expr_utils import (
    columns_used,
    conjoin,
    conjuncts,
    match_column_literal,
    rewrite_qualifier,
)
from repro.storage.keys import SENTINEL_MISSING

SQL = Evaluator("sql")


def apply_scalar_function(name, args):
    return operators("sql").call(name, len(args))(args, None)

SQLPP = Evaluator("sqlpp")
ROW = {"t": {"a": 5, "b": None, "s": "Hi"}}


def col(name, qualifier="t"):
    return ColumnRef(name, qualifier)


class TestResolution:
    def test_qualified_access(self):
        assert SQL.evaluate(col("a"), ROW) == 5

    def test_missing_key_sql_is_null(self):
        assert SQL.evaluate(col("zzz"), ROW) is None

    def test_missing_key_sqlpp_is_missing(self):
        assert SQLPP.evaluate(col("zzz"), ROW) is SENTINEL_MISSING

    def test_bare_binding_returns_record(self):
        assert SQL.evaluate(ColumnRef("t"), ROW) == ROW["t"]

    def test_unqualified_column_searches_bindings(self):
        assert SQL.evaluate(ColumnRef("a"), ROW) == 5

    def test_unknown_binding_raises(self):
        with pytest.raises(ExecutionError):
            SQL.evaluate(col("a", "nope"), ROW)

    def test_star_rejected_outside_select(self):
        with pytest.raises(PlanningError):
            SQL.evaluate(Star(), ROW)


class TestThreeValuedLogic:
    def test_null_comparison_is_null(self):
        expr = BinaryOp("=", col("b"), Literal(1))
        assert SQL.evaluate(expr, ROW) is None
        assert not SQL.truthy(SQL.evaluate(expr, ROW))

    def test_missing_propagates_in_sqlpp(self):
        expr = BinaryOp("=", col("zzz"), Literal(1))
        assert SQLPP.evaluate(expr, ROW) is SENTINEL_MISSING

    def test_kleene_and(self):
        true = Literal(True)
        false = Literal(False)
        null = Literal(None)
        assert SQL.evaluate(BinaryOp("AND", false, null), ROW) is False
        assert SQL.evaluate(BinaryOp("AND", true, null), ROW) is None
        assert SQL.evaluate(BinaryOp("AND", true, true), ROW) is True

    def test_kleene_or(self):
        true = Literal(True)
        false = Literal(False)
        null = Literal(None)
        assert SQL.evaluate(BinaryOp("OR", true, null), ROW) is True
        assert SQL.evaluate(BinaryOp("OR", false, null), ROW) is None
        assert SQL.evaluate(BinaryOp("OR", false, false), ROW) is False

    def test_not_of_null(self):
        assert SQL.evaluate(UnaryOp("NOT", Literal(None)), ROW) is None
        assert SQL.evaluate(UnaryOp("NOT", Literal(True)), ROW) is False

    def test_is_absent_modes(self):
        b_null = IsAbsent(col("b"), "null")
        z_missing = IsAbsent(col("zzz"), "missing")
        z_unknown = IsAbsent(col("zzz"), "unknown")
        b_unknown = IsAbsent(col("b"), "unknown")
        # SQL collapses both absent states into NULL.
        assert SQL.evaluate(b_null, ROW) is True
        assert SQL.evaluate(IsAbsent(col("zzz"), "null"), ROW) is True
        # SQL++ distinguishes them.
        assert SQLPP.evaluate(b_null, ROW) is True
        assert SQLPP.evaluate(IsAbsent(col("zzz"), "null"), ROW) is False
        assert SQLPP.evaluate(z_missing, ROW) is True
        assert SQLPP.evaluate(z_unknown, ROW) is True
        assert SQLPP.evaluate(b_unknown, ROW) is True

    def test_negated_is_absent(self):
        assert SQL.evaluate(IsAbsent(col("a"), "null", negated=True), ROW) is True


class TestOperators:
    def test_arithmetic(self):
        assert SQL.evaluate(BinaryOp("+", col("a"), Literal(2)), ROW) == 7
        assert SQL.evaluate(BinaryOp("%", col("a"), Literal(2)), ROW) == 1

    def test_division_by_zero_is_null(self):
        assert SQL.evaluate(BinaryOp("/", col("a"), Literal(0)), ROW) is None

    def test_string_concat(self):
        expr = BinaryOp("||", col("s"), Literal("!"))
        assert SQL.evaluate(expr, ROW) == "Hi!"

    def test_type_error_comparison(self):
        with pytest.raises(ExecutionError):
            SQL.evaluate(BinaryOp(">", col("s"), Literal(1)), ROW)

    def test_unary_minus(self):
        assert SQL.evaluate(UnaryOp("-", col("a")), ROW) == -5
        assert SQL.evaluate(UnaryOp("-", col("b")), ROW) is None

    def test_scalar_functions(self):
        assert SQL.evaluate(FuncCall("UPPER", (col("s"),)), ROW) == "HI"
        assert SQL.evaluate(FuncCall("LENGTH", (col("s"),)), ROW) == 2
        assert SQL.evaluate(FuncCall("ABS", (UnaryOp("-", col("a")),)), ROW) == 5
        # NULL argument → NULL result.
        assert SQL.evaluate(FuncCall("UPPER", (col("b"),)), ROW) is None

    def test_aggregate_in_scalar_context_rejected(self):
        with pytest.raises(PlanningError):
            SQL.evaluate(FuncCall("MAX", (col("a"),)), ROW)

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            apply_scalar_function("WHATEVER", [1])

    def test_function_library(self):
        assert apply_scalar_function("TO_INT", ["3.7"]) == 3
        assert apply_scalar_function("TO_STRING", [5]) == "5"
        assert apply_scalar_function("SUBSTR", ["hello", 1, 3]) == "ell"
        assert apply_scalar_function("TRIM", ["  x "]) == "x"
        assert apply_scalar_function("CONCAT", ["a", 1, "b"]) == "a1b"
        assert apply_scalar_function("ROUND", [3.14159, 2]) == 3.14
        assert apply_scalar_function("FLOOR", [3.9]) == 3
        assert apply_scalar_function("CEIL", [3.1]) == 4
        assert apply_scalar_function("SQRT", [9]) == 3.0


class TestExprUtils:
    def test_conjuncts_roundtrip(self):
        a = BinaryOp("=", col("a"), Literal(1))
        b = BinaryOp("=", col("b"), Literal(2))
        c = BinaryOp("=", col("s"), Literal("x"))
        tree = BinaryOp("AND", BinaryOp("AND", a, b), c)
        parts = conjuncts(tree)
        assert parts == [a, b, c]
        assert conjuncts(conjoin(parts)) == parts
        assert conjoin([]) is None

    def test_rewrite_qualifier(self):
        expr = BinaryOp("=", col("a", "new"), Literal(1))
        out = rewrite_qualifier(expr, "new", "old")
        assert out.left.qualifier == "old"
        # bare alias refs rename too
        bare = ColumnRef("new")
        assert rewrite_qualifier(bare, "new", "old") == ColumnRef("old")

    def test_columns_used(self):
        expr = BinaryOp(
            "AND",
            BinaryOp("=", col("a"), Literal(1)),
            IsAbsent(ColumnRef("x"), "null"),
        )
        assert columns_used(expr) == {("t", "a"), (None, "x")}

    def test_match_column_literal(self):
        assert match_column_literal(BinaryOp("=", col("a"), Literal(3))) == ("=", "t", "a", 3)
        # flipped side normalizes the operator
        assert match_column_literal(BinaryOp("<", Literal(3), col("a"))) == (">", "t", "a", 3)
        assert match_column_literal(BinaryOp("=", col("a"), col("b"))) is None
        assert match_column_literal(Literal(1)) is None
