"""Abstract syntax tree for the SQL / SQL++ front end.

The same node set serves both dialects; SQL++-only constructs
(``SELECT VALUE``, ``IS UNKNOWN``/``IS MISSING``) are flagged on the nodes
rather than typed separately so the planner can stay dialect-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    """A constant: number, string, boolean, or NULL."""

    value: Any

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class Param:
    """``$1`` (index 0): bound to a literal before the plan is lowered."""

    index: int

    def __str__(self) -> str:
        return f"${self.index + 1}"


@dataclass(frozen=True)
class ColumnRef:
    """A possibly qualified column reference (``t.lang`` or ``lang``)."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Star:
    """``*`` or ``t.*``."""

    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


@dataclass(frozen=True)
class AliasRef:
    """A bare reference to a FROM-clause binding (SQL++ ``SELECT VALUE t``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinaryOp:
    """Binary operator: comparisons, arithmetic, AND/OR."""

    op: str
    left: "Expression"
    right: "Expression"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp:
    """Unary operator: NOT, unary minus."""

    op: str
    operand: "Expression"

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class IsAbsent:
    """``expr IS [NOT] NULL`` / ``IS UNKNOWN`` / ``IS MISSING``.

    ``mode`` is ``'null'``, ``'missing'``, or ``'unknown'`` (null-or-missing,
    SQL++'s IS UNKNOWN — what PolyFrame emits for ``isna()`` on AsterixDB).
    """

    operand: "Expression"
    mode: str = "null"
    negated: bool = False

    def __str__(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.operand} IS {maybe_not}{self.mode.upper()})"


@dataclass(frozen=True)
class FuncCall:
    """A scalar or aggregate function call.

    ``star=True`` encodes ``COUNT(*)``; ``distinct`` is parsed for
    completeness though the benchmark never uses it.
    """

    name: str
    args: tuple["Expression", ...] = ()
    star: bool = False
    distinct: bool = False

    def __str__(self) -> str:
        inner = "*" if self.star else ", ".join(str(arg) for arg in self.args)
        return f"{self.name.upper()}({inner})"


Expression = Union[
    Literal, Param, ColumnRef, Star, AliasRef, BinaryOp, UnaryOp, IsAbsent, FuncCall
]

AGGREGATE_FUNCTIONS = frozenset({"MIN", "MAX", "AVG", "SUM", "COUNT", "STDDEV", "STDDEV_POP"})


def contains_aggregate(expr: Expression) -> bool:
    """True when *expr* contains an aggregate function call."""
    if isinstance(expr, FuncCall):
        if expr.name.upper() in AGGREGATE_FUNCTIONS:
            return True
        return any(contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, IsAbsent):
        return contains_aggregate(expr.operand)
    return False


# ----------------------------------------------------------------------
# Query structure
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One projected expression with an optional alias."""

    expr: Expression
    alias: Optional[str] = None

    def output_name(self) -> str:
        """Column name this item produces in the result."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        if isinstance(self.expr, FuncCall):
            return self.expr.name.lower()
        return str(self.expr)


@dataclass(frozen=True)
class TableRef:
    """A base table in FROM: ``namespace.name alias``."""

    name: str
    alias: Optional[str] = None

    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef:
    """A derived table in FROM: ``(SELECT ...) alias``."""

    query: "SelectQuery"
    alias: str


@dataclass(frozen=True)
class JoinRef:
    """``left JOIN right ON condition`` (inner joins only)."""

    left: "FromItem"
    right: "FromItem"
    condition: Expression
    kind: str = "inner"


FromItem = Union[TableRef, SubqueryRef, JoinRef]


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectQuery:
    """A (possibly nested) SELECT statement.

    ``select_value`` marks SQL++'s ``SELECT VALUE expr`` form, which returns
    bare values rather than records.
    """

    items: tuple[SelectItem, ...]
    from_item: Optional[FromItem]
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    select_value: bool = False
    distinct: bool = False

    def is_aggregate(self) -> bool:
        """True when the query computes aggregates (with or without GROUP BY)."""
        if self.group_by:
            return True
        return any(contains_aggregate(item.expr) for item in self.items)
