"""AST for the Cypher subset PolyFrame's rewrite rules generate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return "NULL" if self.value is None else str(self.value)


@dataclass(frozen=True)
class Param:
    """``$p0`` (index 0): bound to a literal before the query runs."""

    index: int

    def __str__(self) -> str:
        return f"$p{self.index}"


@dataclass(frozen=True)
class Var:
    """A bound variable (``t``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Prop:
    """Property access (``t.unique1``)."""

    var: str
    name: str

    def __str__(self) -> str:
        return f"{self.var}.{self.name}"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "CypherExpr"
    right: "CypherExpr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Un:
    op: str
    operand: "CypherExpr"

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class IsNull:
    operand: "CypherExpr"
    negated: bool = False

    def __str__(self) -> str:
        return f"({self.operand} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass(frozen=True)
class Func:
    """Function call; aggregates are recognized by name."""

    name: str
    args: tuple["CypherExpr", ...] = ()
    star: bool = False

    def __str__(self) -> str:
        inner = "*" if self.star else ", ".join(str(arg) for arg in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class MapLiteral:
    """``{'key': expr, ...}``."""

    entries: tuple[tuple[str, "CypherExpr"], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"'{key}': {value}" for key, value in self.entries)
        return "{" + inner + "}"


@dataclass(frozen=True)
class MapProjection:
    """``t{'k': expr, ...}`` / ``t{.*, r}`` — projects from a node variable."""

    var: str
    entries: tuple[tuple[str, "CypherExpr"], ...] = ()
    include_all: bool = False
    extra_vars: tuple[str, ...] = ()

    def __str__(self) -> str:
        pieces = [".*"] if self.include_all else []
        pieces.extend(f"'{key}': {value}" for key, value in self.entries)
        pieces.extend(self.extra_vars)
        return f"{self.var}{{{', '.join(pieces)}}}"


CypherExpr = Union[Lit, Param, Var, Prop, Bin, Un, IsNull, Func, MapLiteral, MapProjection]

AGGREGATES = frozenset({"count", "min", "max", "avg", "sum", "stdevp", "stdev"})


def children(expr: CypherExpr) -> Sequence[CypherExpr]:
    """The sub-expressions of *expr*, in evaluation order."""
    if isinstance(expr, (Prop, Var, Lit, Param)):
        return ()
    if isinstance(expr, Bin):
        return (expr.left, expr.right)
    if isinstance(expr, (Un, IsNull)):
        return (expr.operand,)
    if isinstance(expr, Func):
        return expr.args
    return [value for _key, value in expr.entries]  # MapLiteral / MapProjection


def contains_aggregate(expr: CypherExpr) -> bool:
    if isinstance(expr, Func) and expr.name.lower() in AGGREGATES:
        return True
    return any(map(contains_aggregate, children(expr)))


# ----------------------------------------------------------------------
# Clauses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Pattern:
    """One node pattern: ``(t: Label)`` or ``(t)``."""

    var: str
    label: Optional[str] = None

    def __str__(self) -> str:
        return f"({self.var}: {self.label})" if self.label else f"({self.var})"


@dataclass(frozen=True)
class OrderKey:
    expr: CypherExpr
    descending: bool = False


@dataclass(frozen=True)
class MatchClause:
    patterns: tuple[Pattern, ...]
    where: Optional[CypherExpr] = None


@dataclass(frozen=True)
class WithItem:
    expr: CypherExpr
    alias: Optional[str] = None

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, Var):
            return self.expr.name
        if isinstance(self.expr, MapProjection):
            return self.expr.var
        if isinstance(self.expr, Prop):
            return f"{self.expr.var}.{self.expr.name}"
        return str(self.expr)


@dataclass(frozen=True)
class WithClause:
    """WITH or RETURN: projection, optional WHERE / ORDER BY / LIMIT."""

    items: tuple[WithItem, ...]
    where: Optional[CypherExpr] = None
    order_by: tuple[OrderKey, ...] = ()
    limit: Optional[int] = None
    is_return: bool = False
    distinct: bool = False

    def is_passthrough(self) -> bool:
        """True for ``WITH t`` — a bare re-selection of one variable."""
        return (
            len(self.items) == 1
            and isinstance(self.items[0].expr, Var)
            and (self.items[0].alias in (None, self.items[0].expr.name))
            and not self.distinct
        )

    def has_aggregates(self) -> bool:
        return any(contains_aggregate(item.expr) for item in self.items)


Clause = Union[MatchClause, WithClause]


@dataclass(frozen=True)
class CypherQuery:
    clauses: tuple[Clause, ...]
