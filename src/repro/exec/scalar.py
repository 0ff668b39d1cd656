"""One scalar semantics under the four engines.

Comparison, Kleene logic, the NULL / MISSING tests, arithmetic, the
scalar functions and the aggregates are defined here once; the four
front ends keep their syntax dispatch and operand resolution and name
their dialect.  Where the languages really disagree the answer is one
row of :data:`DIALECTS`, read when a closure, kernel or accumulator is
built — never per row (``docs/execution.md#scalar-semantics``).

A compiled expression is a closure ``fn(a, b)``: a document and the
pipeline variables (MongoDB), or a row and a group's aggregate results
(Cypher).  The SQL row evaluator calls the same closures with value
getters as operands (:class:`Operators`); the vector evaluator's batch
kernels map those over the slots of a batch.  Every failure leaves as an
:class:`ExecutionError` naming the operator, function or aggregate.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable

from repro.errors import ExecutionError
from repro.exec.batch import MASK_MISSING, MASK_NULL, MASK_VALID, Vector
from repro.storage.keys import SENTINEL_MISSING as MISSING, index_key, sorts_before

Closure = Callable[[Any, Any], Any]

# ----------------------------------------------------------------------
# The dialect table
# ----------------------------------------------------------------------
NULL = "NULL"
ERROR = "error"
TOTAL_ORDER = "index_key order"
NULL_THEN_TOTAL = "NULL, then index_key order"
KLEENE = "Kleene over truth values"
KLEENE_BOOLEANS = "Kleene; only booleans decide"
TRUTHY = "truthy, short-circuit"
NATIVE_ORDER = "native; cross-type is an error"
NON_NULL = "non-NULL values; SUM/AVG/STD fail on a non-number"
NUMBERS = "non-NULL values; SUM/AVG/STD skip non-numbers"


@dataclass(frozen=True)
class Dialect:
    """What one query language decides where the four disagree."""

    absent_field: str  # what reading an absent field yields: NULL or MISSING
    comparison: str  # a cross-type comparison: ERROR, TOTAL_ORDER or NULL_THEN_TOTAL
    logic: str  # AND / OR / NOT: KLEENE, KLEENE_BOOLEANS or TRUTHY
    arithmetic_type_error: str  # ERROR or NULL
    divide_by_zero: str  # ERROR or NULL
    aggregates_take: str  # NON_NULL or NUMBERS
    empty_sum: str  # NULL or "0"
    min_max_order: str  # NATIVE_ORDER or TOTAL_ORDER

    @property
    def absent(self) -> Any:
        return MISSING if self.absent_field == "MISSING" else None


DIALECTS: dict[str, Dialect] = {
    "sql": Dialect(NULL, ERROR, KLEENE, ERROR, NULL, NON_NULL, NULL, NATIVE_ORDER),
    "sqlpp": Dialect("MISSING", ERROR, KLEENE, ERROR, NULL, NON_NULL, NULL, NATIVE_ORDER),
    "mongo": Dialect("MISSING", TOTAL_ORDER, TRUTHY, ERROR, ERROR, NUMBERS, "0", TOTAL_ORDER),
    "cypher": Dialect(NULL, NULL_THEN_TOTAL, KLEENE_BOOLEANS, NULL, NULL, NUMBERS, "0",
                      TOTAL_ORDER),
}


# ----------------------------------------------------------------------
# The error funnel
# ----------------------------------------------------------------------
def _kind(value: Any) -> str:
    return "MISSING" if value is MISSING else "NULL" if value is None else type(value).__name__


def compare_error(left: Any, right: Any) -> ExecutionError:
    return ExecutionError(f"cannot compare {_kind(left)} with {_kind(right)}")


def apply_error(label: str, *values: Any, detail: str = "") -> ExecutionError:
    kinds = " and ".join(map(_kind, values))
    return ExecutionError(f"cannot apply {label} to {kinds}{detail}")


def call_error(label: str, exc: Exception) -> ExecutionError:
    return ExecutionError(f"bad arguments to {label}: {exc}")


#: What a scalar function may raise on bad arguments.
_CALL_ERRORS = (TypeError, ValueError, ArithmeticError)


def raises(message: str) -> Closure:
    """A closure that fails when *called*, so untaken branches stay silent."""

    def fail(_a: Any, _b: Any) -> Any:
        raise ExecutionError(message)

    return fail


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq, "!=": operator.ne, ">": operator.gt,
    "<": operator.lt, ">=": operator.ge, "<=": operator.le,
}
NOT_CONSTANT = object()  # a right operand that is not a scalar literal


def compare_values(op: str) -> Callable[[Any, Any], Any]:
    """The ``ERROR`` rule over two values: MISSING, then NULL, propagates
    and values of no common order raise."""
    compare = COMPARISONS[op]

    def strict(lhs: Any, rhs: Any) -> Any:
        if lhs is MISSING or rhs is MISSING:
            return MISSING
        if lhs is None or rhs is None:
            return None
        try:
            return compare(lhs, rhs)
        except TypeError:
            raise compare_error(lhs, rhs) from None

    return strict


def compile_compare(
    op: str, dialect: Dialect, left: Closure, right: Closure, constant: Any = NOT_CONSTANT
) -> Closure:
    """``left op right``: ``ERROR`` is :func:`compare_values`;
    ``NULL_THEN_TOTAL`` propagates NULL, keeps the values' own equality and
    orders by ``index_key``; ``TOTAL_ORDER`` compares ``index_key``s
    (``MISSING < NULL``), a literal *constant*'s once.  An ``int`` or
    ``str`` meets one of its own type directly."""
    compare = COMPARISONS[op]
    if dialect.comparison == ERROR:
        values = compare_values(op)
        return lambda a, b: values(left(a, b), right(a, b))
    if dialect.comparison == NULL_THEN_TOTAL:
        if op in ("=", "!="):

            def equal(a: Any, b: Any) -> Any:
                lhs, rhs = left(a, b), right(a, b)
                if lhs is None or rhs is None:
                    return None
                return compare(lhs, rhs)

            return equal

        def ordered(a: Any, b: Any) -> Any:
            lhs, rhs = left(a, b), right(a, b)
            if lhs is None or rhs is None:
                return None
            kind = type(lhs)
            if kind is type(rhs) and (kind is int or kind is str):
                return compare(lhs, rhs)  # same rank: values order as their keys do
            try:
                return compare(index_key(lhs), index_key(rhs))
            except TypeError:
                raise compare_error(lhs, rhs) from None

        return ordered
    if constant is NOT_CONSTANT:

        def both_computed(a: Any, b: Any) -> bool:
            lhs, rhs = left(a, b), right(a, b)
            try:
                return compare(index_key(lhs), index_key(rhs))
            except TypeError:
                raise compare_error(lhs, rhs) from None

        return both_computed
    constant_key = index_key(constant)
    kind = type(constant) if type(constant) in (int, str) else None

    def against_constant(a: Any, b: Any) -> bool:
        value = left(a, b)
        if type(value) is kind:
            return compare(value, constant)
        try:
            return compare(index_key(value), constant_key)
        except TypeError:
            raise compare_error(value, constant) from None

    return against_constant


# ----------------------------------------------------------------------
# Logic and the NULL / MISSING tests
# ----------------------------------------------------------------------
def _truth(operand: Closure) -> Closure:
    def truth(a: Any, b: Any) -> Any:
        value = operand(a, b)
        return None if value is None or value is MISSING else bool(value)

    return truth


def compile_logic(op: str, dialect: Dialect, left: Closure, right: Closure) -> Closure:
    """Kleene ``AND`` / ``OR``; both sides always run.  Under ``KLEENE``
    the operands count as their truth values (MISSING as NULL); under
    ``KLEENE_BOOLEANS`` only ``TRUE`` / ``FALSE`` themselves decide."""
    if dialect.logic == KLEENE:
        left, right = _truth(left), _truth(right)
    dominant = op == "OR"  # TRUE decides an OR, FALSE an AND, whatever the other side

    def logical(a: Any, b: Any) -> Any:
        lhs, rhs = left(a, b), right(a, b)
        if lhs is dominant or rhs is dominant:
            return dominant
        if lhs is None or rhs is None:
            return None
        return bool(lhs) or bool(rhs) if dominant else bool(lhs) and bool(rhs)

    return logical


def compile_not(operand: Closure) -> Closure:
    def negation(a: Any, b: Any) -> Any:
        value = operand(a, b)
        return None if value is None or value is MISSING else not value

    return negation


def absent_states(mode: str, dialect: Dialect) -> tuple[Any, ...]:
    """The values ``IS <mode>`` (``null`` / ``missing`` / ``unknown``)
    matches; where an absent field reads as NULL, every form matches both."""
    if dialect.absent_field == NULL:
        return (None, MISSING)
    return {"null": (None,), "missing": (MISSING,), "unknown": (None, MISSING)}[mode]


def compile_is(mode: str, negated: bool, dialect: Dialect, operand: Closure | None) -> Closure:
    """``operand IS [NOT] <mode>``; without an operand, the test of the value
    given as the first argument."""
    first, *rest = absent_states(mode, dialect)
    other = rest[0] if rest else first
    if operand is None:
        if negated:
            return lambda value, _b: value is not first and value is not other
        return lambda value, _b: value is first or value is other
    if negated:
        return lambda a, b: (value := operand(a, b)) is not first and value is not other
    return lambda a, b: (value := operand(a, b)) is first or value is other


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod, "||": lambda a, b: str(a) + str(b),
}


def _failure(rule: str, detail: str = "") -> Callable[[str, Any, Any], Any]:
    """What an arithmetic failure becomes: NULL, or the funnel's error."""
    if rule == NULL:
        return lambda _label, _lhs, _rhs: None

    def fail(label: str, lhs: Any, rhs: Any) -> Any:
        raise apply_error(label, lhs, rhs, detail=detail) from None

    return fail


def _failures(dialect: Dialect) -> tuple[Callable, Callable]:
    return (_failure(dialect.arithmetic_type_error),
            _failure(dialect.divide_by_zero, ": division by zero"))


def compile_arithmetic(op: str, dialect: Dialect, left: Closure, right: Closure) -> Closure:
    """Infix ``left op right``: MISSING, then NULL, propagates."""
    func = ARITHMETIC[op]
    on_type, on_zero = _failures(dialect)

    def arithmetic(a: Any, b: Any) -> Any:
        lhs, rhs = left(a, b), right(a, b)
        if lhs is MISSING or rhs is MISSING:
            return MISSING
        if lhs is None or rhs is None:
            return None
        try:
            return func(lhs, rhs)
        except TypeError:
            return on_type(op, lhs, rhs)
        except ZeroDivisionError:
            return on_zero(op, lhs, rhs)
        except ArithmeticError as exc:
            raise apply_error(op, lhs, rhs, detail=f": {exc}") from None

    return arithmetic


def compile_fold(op: str, dialect: Dialect, operands: list[Closure], label: str) -> Closure:
    """An n-ary operator (MongoDB's ``$add`` …) folded left to right; an
    absent operand makes it NULL."""
    if not operands:
        return raises(f"{label} takes at least one operand")
    func = ARITHMETIC[op]
    on_type, on_zero = _failures(dialect)

    def fold(a: Any, b: Any) -> Any:
        values = [operand(a, b) for operand in operands]
        for value in values:
            if value is None or value is MISSING:
                return None
        result = values[0]
        for value in values[1:]:
            try:
                result = func(result, value)
            except TypeError:
                return on_type(label, result, value)
            except ZeroDivisionError:
                return on_zero(label, result, value)
            except ArithmeticError as exc:
                raise apply_error(label, result, value, detail=f": {exc}") from None
        return result

    return fold


def compile_negate(operand: Closure) -> Closure:
    def negate(a: Any, b: Any) -> Any:
        value = operand(a, b)
        if value is None or value is MISSING:
            return value
        try:
            return -value
        except TypeError:
            raise apply_error("-", value) from None

    return negate


def compile_binary(op: str, dialect: Dialect, left: Closure, right: Closure) -> Closure:
    """The closure of infix operator *op* (SQL, SQL++, Cypher)."""
    if op in ("AND", "OR"):
        return compile_logic(op, dialect, left, right)
    if op in COMPARISONS:
        return compile_compare(op, dialect, left, right)
    if op in ARITHMETIC:
        return compile_arithmetic(op, dialect, left, right)
    return raises(f"unknown operator {op!r}")


# ----------------------------------------------------------------------
# Scalar functions
# ----------------------------------------------------------------------
#: Every scalar function by its SQL name (``$toUpper`` and ``upper`` are ``UPPER``).
FUNCTIONS: dict[str, Callable[..., Any]] = {
    "UPPER": lambda s: str(s).upper(),
    "LOWER": lambda s: str(s).lower(),
    "LENGTH": lambda s: len(str(s)),
    "SIZE": len,
    "ABS": abs,
    "ROUND": lambda x, n=0: round(x, int(n)),
    "FLOOR": math.floor,
    "CEIL": math.ceil,
    "SQRT": math.sqrt,
    "TO_STRING": str,
    "TO_INT": lambda x: int(float(x)),
    "TO_DOUBLE": float,
    "SUBSTR": lambda s, start, length=None: (
        str(s)[int(start):] if length is None else str(s)[int(start):int(start) + int(length)]
    ),
    "TRIM": lambda s: str(s).strip(),
    "CONCAT": lambda *parts: "".join(str(part) for part in parts),
    "IS_NUMBER": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
PROPAGATE = object()  # an absent argument makes the call absent too


def compile_call(
    name: str, label: str, operands: list[Closure], if_absent: Any = PROPAGATE
) -> Closure:
    """``name(operands...)``: an absent argument makes the call MISSING,
    else NULL — or *if_absent*, MongoDB's per-operator answer."""
    func = FUNCTIONS.get(name) or _unknown(label)
    absent = {None: None, MISSING: MISSING} if if_absent is PROPAGATE else {
        None: if_absent, MISSING: if_absent}
    if len(operands) == 1:
        (operand,) = operands

        def call(a: Any, b: Any) -> Any:
            value = operand(a, b)
            if value is None or value is MISSING:
                return absent[value]
            try:
                return func(value)
            except _CALL_ERRORS as exc:
                raise call_error(label, exc) from None

        return call

    def call_many(a: Any, b: Any) -> Any:
        values = [operand(a, b) for operand in operands]
        if any(value is MISSING for value in values):
            return absent[MISSING]
        if any(value is None for value in values):
            return absent[None]
        try:
            return func(*values)
        except _CALL_ERRORS as exc:
            raise call_error(label, exc) from None

    return call_many


def _unknown(label: str) -> Callable[..., Any]:
    def unknown(*_args: Any) -> Any:
        raise ExecutionError(f"unknown function {label}")

    return unknown


# ----------------------------------------------------------------------
# Operators over computed values, and their batch kernels
# ----------------------------------------------------------------------
def _first(a: Any, _b: Any) -> Any:
    return a


def _second(_a: Any, b: Any) -> Any:
    return b


def _slot(index: int) -> Closure:
    return lambda values, _b: values[index]


#: Without NULL or MISSING slots, Kleene logic is Python's on truth values.
_PLAIN_LOGIC = {"AND": lambda a, b: bool(a) and bool(b), "OR": lambda a, b: bool(a) or bool(b)}
_MASK_OF = {None: MASK_NULL, MISSING: MASK_MISSING}


class Operators:
    """A SQL dialect's operators over computed values — ``binary[op](l, r)``,
    ``not_`` / ``negate`` / ``is_[mode][negated]`` of ``(value, None)`` —
    and their batch kernels: a C-level ``map`` when no slot is NULL or
    MISSING, else the value function over every slot."""

    def __init__(self, dialect: Dialect) -> None:
        self.dialect = dialect
        self.binary = {op: compile_binary(op, dialect, _first, _second)
                       for op in ("AND", "OR", *ARITHMETIC)}
        self.binary.update({op: compare_values(op) for op in COMPARISONS})
        self.not_ = compile_not(_first)
        self.negate = compile_negate(_first)
        self.is_ = {mode: [compile_is(mode, negated, dialect, None) for negated in (False, True)]
                    for mode in ("null", "missing", "unknown")}
        self.batch_binary = {op: _binary_kernel(COMPARISONS.get(op) or ARITHMETIC.get(op)
                                                or _PLAIN_LOGIC[op], value)
                             for op, value in self.binary.items()}
        self.batch_not = _unary_kernel(operator.not_, self.not_)
        self.batch_negate = _unary_kernel(operator.neg, self.negate)
        self._calls: dict[tuple[str, int], Closure] = {}

    def call(self, name: str, arity: int) -> Closure:
        """``call(name, n)(values, None)`` applies *name* to a list of n values."""
        fn = self._calls.get((name, arity))
        if fn is None:
            fn = compile_call(name, name, [_slot(i) for i in range(arity)])
            if name in FUNCTIONS:  # an unknown name from a query is not kept
                self._calls[name, arity] = fn
        return fn

    def batch_call(self, name: str, args: list[Vector], length: int) -> Vector:
        fn = self.call(name, len(args))
        rows = zip(*(vector.to_python() for vector in args)) if args else [()] * length
        return Vector.from_python([fn(list(row), None) for row in rows])

    def batch_is(self, mode: str, negated: bool, vector: Vector) -> Vector:
        codes = {_MASK_OF[state] for state in absent_states(mode, self.dialect)}
        mask = vector.mask
        if mask is None:
            absent = [False] * len(vector.values)
        elif len(codes) == 2:
            absent = [state != MASK_VALID for state in mask]
        else:
            (code,) = codes
            absent = [state == code for state in mask]
        return Vector([not value for value in absent] if negated else absent, None)


def _binary_kernel(fast: Callable[[Any, Any], Any], value: Closure) -> Callable:
    def kernel(left: Vector, right: Vector) -> Vector:
        if left.mask is None and right.mask is None:
            try:
                return Vector(list(map(fast, left.values, right.values)), None)
            except (TypeError, ArithmeticError):
                pass  # the slot-wise path answers or raises precisely
        return Vector.from_python(map(value, left.to_python(), right.to_python()))

    return kernel


def _unary_kernel(fast: Callable[[Any], Any], value: Closure) -> Callable:
    def kernel(vector: Vector) -> Vector:
        if vector.mask is None:
            try:
                return Vector(list(map(fast, vector.values)), None)
            except TypeError:
                pass
        return Vector.from_python(map(value, vector.to_python(), itertools.repeat(None)))

    return kernel


@cache
def operators(dialect: str) -> Operators:
    """The one :class:`Operators` of ``"sql"`` or ``"sqlpp"``."""
    return Operators(DIALECTS[dialect])


# ----------------------------------------------------------------------
# Accumulators: ``add`` a value, ``add_many`` a batch, ``merge`` a spill
# run's state, ``result``.  Integer sums stay exact until the finalizer.
# ----------------------------------------------------------------------


def finalize_avg(count: Any, total: Any, _total_sq: Any = None) -> Any:
    """The mean from (count, sum); ``None`` for no values."""
    if not count:
        return None
    return total / count


def finalize_std(count: Any, total: Any, total_sq: Any) -> Any:
    """Population standard deviation as ``(n·Σx² − (Σx)²) / n²``: exact in
    integers up to the division; float cancellation is clamped at zero."""
    if not count:
        return None
    variance = (count * total_sq - total * total) / (count * count)
    if variance < 0:
        variance = 0.0
    return math.sqrt(variance)


def merge_group_state(prior: tuple[list, Any], later: tuple[list, Any]) -> tuple[list, Any]:
    """Fold a later spill run's ``(accumulators, representative)`` into the
    earlier one, positionally; the earliest representative stays."""
    for accumulator, other in zip(prior[0], later[0]):
        accumulator.merge(other)
    return prior


def hashable(value: Any) -> Any:
    """A value's group / DISTINCT key: maps as sorted items, lists as tuples,
    MISSING apart from NULL."""
    if isinstance(value, dict):
        return tuple(sorted((k, hashable(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(hashable(v) for v in value)
    if value is MISSING:
        return ("__missing__",)
    return value


class Count:
    """COUNT(expr): the non-NULL values; COUNT(*) adds rows."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None and value is not MISSING:
            self.count += 1

    def add_rows(self, count: int) -> None:
        self.count += count

    def add_many(self, values: list[Any]) -> None:
        self.count += sum(1 for value in values if value is not None and value is not MISSING)

    def merge(self, other: "Count") -> None:
        self.count += other.count

    def result(self) -> int:
        return self.count


class Extreme:
    """MIN / MAX: the first best non-NULL value under ``before``."""

    __slots__ = ("best", "label", "before", "pick", "key")

    def __init__(self, label: str, before: Callable, pick: Callable, key: Callable | None) -> None:
        self.best: Any = None
        self.label, self.before, self.pick, self.key = label, before, pick, key

    def add(self, value: Any) -> None:
        if value is None or value is MISSING:
            return
        best = self.best
        try:
            if best is None or self.before(value, best):
                self.best = value
        except TypeError:
            raise self._error(value, best) from None

    def add_many(self, values: list[Any]) -> None:
        present = [value for value in values if value is not None and value is not MISSING]
        try:
            best = self.pick(present, key=self.key) if present else None
        except TypeError:
            for value in present:
                self.add(value)  # raises at the first pair without an order, as row by row
            return
        self.add(best)

    def merge(self, other: "Extreme") -> None:
        self.add(other.best)

    def result(self) -> Any:
        return self.best

    def _error(self, *values: Any) -> ExecutionError:
        """Each type once, in name order, however rows are ordered or sharded."""
        one_of = {_kind(value): value for value in values}
        return apply_error(self.label, *(one_of[name] for name in sorted(one_of)))


class Moments:
    """SUM / AVG / STD from exact (count, sum, sum-of-squares) state over
    every non-NULL value; a value ``+`` cannot add fails the aggregate."""

    __slots__ = ("count", "total", "total_sq", "label", "finalize")

    def __init__(self, label: str, finalize: Callable[[int, Any, Any], Any]) -> None:
        self.count, self.total, self.total_sq = 0, 0, 0
        self.label, self.finalize = label, finalize

    def add(self, value: Any) -> None:
        if value is None or value is MISSING:
            return
        try:
            self.total += value
            self.total_sq += value * value
        except TypeError:
            raise apply_error(self.label, value) from None
        except ArithmeticError as exc:
            raise apply_error(self.label, value, detail=f": {exc}") from None
        self.count += 1

    def add_many(self, values: list[Any]) -> None:
        present = [value for value in values if value is not None and value is not MISSING]
        try:
            total, total_sq = sum(present), sum(value * value for value in present)
            new_total, new_total_sq = self.total + total, self.total_sq + total_sq
        except (TypeError, ArithmeticError):
            for value in present:
                self.add(value)  # raises at the first value that does not add
            return
        self.count += len(present)
        self.total, self.total_sq = new_total, new_total_sq

    def merge(self, other: "Moments") -> None:
        try:
            total, total_sq = self.total + other.total, self.total_sq + other.total_sq
        except ArithmeticError as exc:
            raise apply_error(self.label, self.total, other.total, detail=f": {exc}") from None
        self.count += other.count
        self.total, self.total_sq = total, total_sq

    def result(self) -> Any:
        try:
            return self.finalize(self.count, self.total, self.total_sq)
        except ArithmeticError as exc:  # an integer sum no float holds
            raise apply_error(self.label, self.total, detail=f": {exc}") from None


class NumericMoments(Moments):
    """:class:`Moments` over the numbers only; anything else is skipped."""

    __slots__ = ()

    def add(self, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                self.total += value
                self.total_sq += value * value
            except ArithmeticError as exc:
                raise apply_error(self.label, value, detail=f": {exc}") from None
            self.count += 1

    def add_many(self, values: list[Any]) -> None:
        for value in values:
            self.add(value)


def _sorts_after(left: Any, right: Any) -> bool:
    """``sorts_before(right, left)``, without the extra call."""
    kind = type(left)
    if kind is type(right) and (kind is int or kind is float or kind is str):
        return left > right
    return index_key(left) > index_key(right)


def accumulator(kind: str, dialect: Dialect, label: str | None = None) -> Callable[[], Any]:
    """The factory of aggregate *kind* — ``COUNT``, ``SUM``, ``AVG``,
    ``STD``, ``MIN`` or ``MAX`` — under *dialect*; errors name *label*."""
    label = label or kind
    if kind == "COUNT":
        return Count
    if kind in ("MIN", "MAX"):
        is_min = kind == "MIN"
        if dialect.min_max_order == TOTAL_ORDER:
            before, key = (sorts_before if is_min else _sorts_after), index_key
        else:
            before, key = (operator.lt if is_min else operator.gt), None
        pick = min if is_min else max
        return lambda: Extreme(label, before, pick, key)
    if kind == "SUM":
        finalize = _sum if dialect.empty_sum == "0" else _sum_or_null
    elif kind == "AVG":
        finalize = finalize_avg
    else:
        finalize = finalize_std
    moments = NumericMoments if dialect.aggregates_take == NUMBERS else Moments
    return lambda: moments(label, finalize)


def _sum(_count: int, total: Any, _total_sq: Any) -> Any:
    return total


def _sum_or_null(count: int, total: Any, _total_sq: Any) -> Any:
    return total if count else None
