"""Logical plan nodes.

Each node corresponds to one rewrite-rule application (Scan ↔ ``q1``,
Filter ↔ ``q6``, Project ↔ ``q2``, …).  A plan is an immutable tree;
transformations on PolyFrame build new trees by wrapping, and the
compiler walks them bottom-up through a language's rewrite rules.

``fingerprint()`` is the normalized identity of a plan: two frames that
performed the same logical operations (same columns, same literals, same
order) share one fingerprint regardless of how the API calls were
phrased.  ``fingerprint(slots)`` is the plan's *shape*, the compiled-query
cache's key: the same, with each slot-able literal left out as a typed
``?`` slot and its value collected into *slots* (the bindings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.plan.expr import Expr, Slots


class PlanNode:
    """Base class for logical plan nodes."""

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def label(self) -> str:
        """One pretty-print line for ``explain(verbose=True)``."""
        return type(self).__name__

    def fingerprint(self, slots: Slots | None = None) -> str:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def walk(self) -> Iterator["PlanNode"]:
        """This node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        """Indented tree rendering (root first, inputs indented below)."""
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


@dataclass(frozen=True)
class Scan(PlanNode):
    """All records of a stored dataset (``q1``)."""

    namespace: str
    collection: str

    def label(self) -> str:
        qualified = f"{self.namespace}.{self.collection}" if self.namespace else self.collection
        return f"Scan[{qualified}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return f"scan({self.namespace!r},{self.collection!r})"


@dataclass(frozen=True)
class RawQuery(PlanNode):
    """Pre-rendered backend query text (the ``_with_query`` escape hatch).

    Compiles to its frozen text on the backend that produced it; the
    optimizer passes it through untouched and ``retarget()`` refuses it.
    """

    text: str

    def label(self) -> str:
        first = self.text.splitlines()[0] if self.text else ""
        return f"RawQuery[{first!r}…]" if "\n" in self.text else f"RawQuery[{self.text!r}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return f"raw({self.text!r})"


@dataclass(frozen=True)
class Filter(PlanNode):
    """Keep records satisfying a predicate (``q6``)."""

    input: PlanNode
    predicate: Expr

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Filter[{self.predicate.describe()}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return f"filter({self.input.fingerprint(slots)},{self.predicate.fingerprint(slots)})"


@dataclass(frozen=True)
class Project(PlanNode):
    """Project named attributes (``q2``)."""

    input: PlanNode
    columns: tuple[str, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Project[{', '.join(self.columns)}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return f"project({self.input.fingerprint(slots)},{self.columns!r})"


@dataclass(frozen=True)
class Compute(PlanNode):
    """Project one computed statement under an alias (``q9``)."""

    input: PlanNode
    expr: Expr
    alias: str

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Compute[{self.alias} = {self.expr.describe()}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return (
            f"compute({self.input.fingerprint(slots)},{self.expr.fingerprint(slots)},"
            f"{self.alias!r})"
        )


@dataclass(frozen=True)
class ComputeList(PlanNode):
    """Project several computed statements (``q15``; get_dummies)."""

    input: PlanNode
    items: tuple[tuple[Expr, str], ...]  # (expression, alias) pairs

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        parts = ", ".join(f"{alias} = {expr.describe()}" for expr, alias in self.items)
        return f"ComputeList[{parts}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        items = ";".join(
            f"{expr.fingerprint(slots)}:{alias!r}" for expr, alias in self.items
        )
        return f"computelist({self.input.fingerprint(slots)},{items})"


@dataclass(frozen=True)
class Sort(PlanNode):
    """Order by one attribute (``q4``/``q5``); ``limit`` holds a fused top-k."""

    input: PlanNode
    by: str
    ascending: bool = True
    limit: int | None = None

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        direction = "asc" if self.ascending else "desc"
        top = f", top {self.limit}" if self.limit is not None else ""
        return f"Sort[{self.by} {direction}{top}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return (
            f"sort({self.input.fingerprint(slots)},{self.by!r},{self.ascending},"
            f"{self.limit})"
        )


@dataclass(frozen=True)
class Limit(PlanNode):
    """First *n* records (the ``limit`` terminal rule as a plan node)."""

    input: PlanNode
    n: int

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Limit[{self.n}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return f"limit({self.input.fingerprint(slots)},{self.n})"


@dataclass(frozen=True)
class Count(PlanNode):
    """Total record count (``q3``)."""

    input: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return "Count"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return f"count({self.input.fingerprint(slots)})"


@dataclass(frozen=True)
class Agg(PlanNode):
    """One whole-input aggregate (``q7``)."""

    input: PlanNode
    func_rule: str  # FUNCTIONS rule name: min/max/avg/std/count/sum
    attribute: str
    alias: str

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Agg[{self.func_rule}({self.attribute}) as {self.alias}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return (
            f"agg({self.input.fingerprint(slots)},{self.func_rule},"
            f"{self.attribute!r},{self.alias!r})"
        )


@dataclass(frozen=True)
class GroupAgg(PlanNode):
    """Group by key column(s) and aggregate one attribute (``q8``/``q16``)."""

    input: PlanNode
    keys: tuple[str, ...]
    func_rule: str
    attribute: str
    alias: str

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        keys = ", ".join(self.keys)
        return f"GroupAgg[by {keys}: {self.func_rule}({self.attribute}) as {self.alias}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return (
            f"groupagg({self.input.fingerprint(slots)},{self.keys!r},"
            f"{self.func_rule},{self.attribute!r},{self.alias!r})"
        )


@dataclass(frozen=True)
class MultiAgg(PlanNode):
    """Several aggregates in one query (``q13``; describe)."""

    input: PlanNode
    items: tuple[tuple[str, str, str], ...]  # (func_rule, attribute, alias)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        parts = ", ".join(f"{rule}({attr})" for rule, attr, _ in self.items)
        return f"MultiAgg[{parts}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        items = ";".join(f"{r}:{a!r}:{al!r}" for r, a, al in self.items)
        return f"multiagg({self.input.fingerprint(slots)},{items})"


@dataclass(frozen=True)
class Distinct(PlanNode):
    """Distinct values of one attribute (``q14``)."""

    input: PlanNode
    attribute: str

    def children(self) -> tuple[PlanNode, ...]:
        return (self.input,)

    def label(self) -> str:
        return f"Distinct[{self.attribute}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return f"distinct({self.input.fingerprint(slots)},{self.attribute!r})"


@dataclass(frozen=True)
class Join(PlanNode):
    """Equi-join two plans (``q10``)."""

    left: PlanNode
    right: PlanNode
    left_on: str
    right_on: str
    right_collection: str = ""

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return f"Join[{self.left_on} = {self.right_on}]"

    def fingerprint(self, slots: Slots | None = None) -> str:
        return (
            f"join({self.left.fingerprint(slots)},{self.right.fingerprint(slots)},"
            f"{self.left_on!r},{self.right_on!r},{self.right_collection!r})"
        )


def plan_is_retargetable(plan: PlanNode) -> bool:
    """Whether every node compiles from backend-agnostic state.

    ``RawQuery`` nodes and opaque (pre-rendered) expression fragments pin
    a plan to the backend that produced their text.
    """
    for node in plan.walk():
        if isinstance(node, RawQuery):
            return False
        if isinstance(node, Filter) and not node.predicate.retargetable:
            return False
        if isinstance(node, Compute) and not node.expr.retargetable:
            return False
        if isinstance(node, ComputeList) and not all(
            expr.retargetable for expr, _ in node.items
        ):
            return False
    return True
