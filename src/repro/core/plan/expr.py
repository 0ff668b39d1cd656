"""Backend-agnostic expression trees.

An :class:`Expr` records *what* a PolySeries expression computes (columns,
literals, operator structure); rendering it through a language's
:class:`~repro.core.rewrite.RewriteEngine` produces the statement fragment
the rewrite rules compose — byte-identical to what the eager PolySeries
composition builds, because rendering applies the exact same rules in the
exact same order (including the MongoDB configuration's field-name
reference style and ``"$column"`` field paths).

Because the tree holds no backend text, the same expression renders for
any backend — the substrate of :meth:`PolyFrame.retarget`.  The one
exception is :class:`OpaqueExpr`, which wraps an already-rendered fragment
(the raw-query escape hatch): it renders the frozen text for every backend
and marks the plan as non-retargetable.

A plan's *shape* leaves its literals out: :class:`Slots` collects them
(the *bindings*) while the plan is fingerprinted, so every lookup
``df[df.unique1 == k]`` shares one shape and one compiled template.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any

from repro.errors import RewriteError

#: rule name → symbol, for the backend-neutral ``describe()`` rendering.
_OP_SYMBOLS = {
    "eq": "==", "ne": "!=", "gt": ">", "lt": "<", "ge": ">=", "le": "<=",
    "add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%",
    "and": "and", "or": "or",
}


class Expr(abc.ABC):
    """One node of a backend-agnostic expression tree."""

    @abc.abstractmethod
    def render(self, rw) -> str:
        """The full statement fragment in *rw*'s language."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Backend-neutral text for plan pretty-printing."""

    @abc.abstractmethod
    def fingerprint(self, slots: Slots | None = None) -> str:
        """Stable identity for plan normalization / cache keys.

        With *slots*, the plan's *shape*: slot-able literals are left out
        as typed ``?`` slots and their values collected into *slots*.
        """

    def columns(self) -> frozenset[str]:
        """Column names this expression reads (empty if unknown)."""
        return frozenset()

    @property
    def retargetable(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Operand forms (parity with PolySeries._left_operand/_right_operand)
    # ------------------------------------------------------------------
    def render_left(self, rw) -> str:
        """What comparison/arithmetic templates receive as ``$left``."""
        if rw.reference_style == "attribute":
            raise RewriteError(
                f"the {rw.language} rewrite rules reference fields by "
                "name; only plain columns can be compared (the paper's "
                "MongoDB configuration has the same shape)"
            )
        return self.render(rw)

    def render_right(self, rw) -> str:
        """What templates receive as ``$right``."""
        if rw.reference_style == "attribute":
            raise RewriteError(
                "field-name rewrite rules require a plain column on "
                "the right-hand side"
            )
        return self.render(rw)


@dataclass(frozen=True)
class ColumnExpr(Expr):
    """A plain column reference."""

    name: str

    def render(self, rw) -> str:
        return rw.apply("single_attribute", attribute=self.name)

    def render_left(self, rw) -> str:
        if rw.reference_style == "attribute":
            return self.name
        return self.render(rw)

    def render_right(self, rw) -> str:
        if rw.reference_style == "attribute":
            return f'"${self.name}"'  # a Mongo field path
        return self.render(rw)

    def columns(self) -> frozenset[str]:
        return frozenset((self.name,))

    def describe(self) -> str:
        return self.name

    def fingerprint(self, slots: Slots | None = None) -> str:
        return f"col({self.name})"


class Slots:
    """The literals a plan's shape leaves out, collected while it is fingerprinted.

    ``values`` are the bindings; ``index`` maps each slotted
    :class:`LiteralExpr` (by identity) to its binding.  A literal object
    met twice is one binding, spelled ``?<n>`` in the shape the second time.
    """

    __slots__ = ("values", "index")

    def __init__(self) -> None:
        self.values: list[Any] = []
        self.index: dict[int, int] = {}

    def fingerprint(self, literal: LiteralExpr) -> str:
        slot = self.index.get(id(literal))
        if slot is not None:
            return f"?{slot}"
        self.index[id(literal)] = len(self.values)
        self.values.append(literal.value)
        return f"?{type(literal.value).__name__}"


def slotted(value: Any) -> bool:
    """Whether *value* is a binding: ``int``, finite ``float``, ``str``, ``bool``.

    ``None`` stays in the shape (``= NULL`` keeps its plan), and so does
    what no language can spell (``inf``, other types): rendering raises.
    """
    kind = type(value)
    return kind in (int, str, bool) or (kind is float and math.isfinite(value))


@dataclass(frozen=True)
class LiteralExpr(Expr):
    """A Python literal, rendered through the language's LITERALS rules."""

    value: Any

    def render(self, rw) -> str:
        return rw.render_literal(self)

    def render_right(self, rw) -> str:
        return rw.render_literal(self)

    def describe(self) -> str:
        return repr(self.value)

    def fingerprint(self, slots: Slots | None = None) -> str:
        if slots is not None and slotted(self.value):
            return slots.fingerprint(self)
        return f"lit({type(self.value).__name__}:{self.value!r})"


@dataclass(frozen=True)
class BinaryExpr(Expr):
    """A comparison or arithmetic operator (``eq``/``gt``/``add``/…)."""

    rule: str
    left: Expr
    right: Expr

    def render(self, rw) -> str:
        return rw.apply(
            self.rule, left=self.left.render_left(rw), right=self.right.render_right(rw)
        )

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    @property
    def retargetable(self) -> bool:
        return self.left.retargetable and self.right.retargetable

    def describe(self) -> str:
        symbol = _OP_SYMBOLS.get(self.rule, self.rule)
        return f"({self.left.describe()} {symbol} {self.right.describe()})"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return f"{self.rule}({self.left.fingerprint(slots)},{self.right.fingerprint(slots)})"


@dataclass(frozen=True)
class LogicalExpr(Expr):
    """``and``/``or``/``not`` over full rendered statements."""

    rule: str
    left: Expr
    right: Expr | None = None

    def render(self, rw) -> str:
        if self.right is None:
            return rw.apply(self.rule, left=self.left.render(rw))
        return rw.apply(
            self.rule, left=self.left.render(rw), right=self.right.render(rw)
        )

    def columns(self) -> frozenset[str]:
        cols = self.left.columns()
        if self.right is not None:
            cols = cols | self.right.columns()
        return cols

    @property
    def retargetable(self) -> bool:
        return self.left.retargetable and (
            self.right is None or self.right.retargetable
        )

    def describe(self) -> str:
        if self.right is None:
            return f"{self.rule}({self.left.describe()})"
        symbol = _OP_SYMBOLS.get(self.rule, self.rule)
        return f"({self.left.describe()} {symbol} {self.right.describe()})"

    def fingerprint(self, slots: Slots | None = None) -> str:
        left = self.left.fingerprint(slots)
        right = self.right.fingerprint(slots) if self.right is not None else ""
        return f"{self.rule}({left},{right})"


@dataclass(frozen=True)
class MapExpr(Expr):
    """A scalar function applied to an operand (``upper``/``abs``/…)."""

    rule: str
    operand: Expr

    def render(self, rw) -> str:
        if rw.reference_style == "attribute":
            if not isinstance(self.operand, ColumnExpr):
                raise RewriteError(
                    "field-name rewrite rules can only map plain columns"
                )
            return rw.apply(self.rule, attribute=self.operand.name)
        return rw.apply(self.rule, operand=self.operand.render(rw))

    def columns(self) -> frozenset[str]:
        return self.operand.columns()

    @property
    def retargetable(self) -> bool:
        return self.operand.retargetable

    def describe(self) -> str:
        return f"{self.rule}({self.operand.describe()})"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return f"map:{self.rule}({self.operand.fingerprint(slots)})"


@dataclass(frozen=True)
class IsInExpr(Expr):
    """Membership in a literal list (``Series.isin``)."""

    left: Expr
    values: tuple[Any, ...]

    def render(self, rw) -> str:
        rendered = rw.join_list([rw.literal(value) for value in self.values])
        return rw.apply("isin", left=self.left.render_left(rw), list=rendered)

    def columns(self) -> frozenset[str]:
        return self.left.columns()

    @property
    def retargetable(self) -> bool:
        return self.left.retargetable

    def describe(self) -> str:
        return f"{self.left.describe()} in {list(self.values)!r}"

    def fingerprint(self, slots: Slots | None = None) -> str:
        values = ",".join(f"{type(v).__name__}:{v!r}" for v in self.values)
        return f"isin({self.left.fingerprint(slots)},[{values}])"


@dataclass(frozen=True)
class NullCheckExpr(Expr):
    """``isnull``/``notnull`` over an operand."""

    rule: str
    left: Expr

    def render(self, rw) -> str:
        return rw.apply(self.rule, left=self.left.render_left(rw))

    def columns(self) -> frozenset[str]:
        return self.left.columns()

    @property
    def retargetable(self) -> bool:
        return self.left.retargetable

    def describe(self) -> str:
        return f"{self.rule}({self.left.describe()})"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return f"{self.rule}({self.left.fingerprint(slots)})"


@dataclass(frozen=True)
class OpaqueExpr(Expr):
    """An already-rendered statement fragment (raw escape hatch).

    Renders its frozen text for every backend, so plans containing one
    still compile on the backend that produced the text but refuse
    :meth:`PolyFrame.retarget`.
    """

    text: str

    def render(self, rw) -> str:
        return self.text

    def render_left(self, rw) -> str:
        return self.text

    def describe(self) -> str:
        return f"raw:{self.text!r}"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return f"opaque({self.text!r})"

    @property
    def retargetable(self) -> bool:
        return False
