"""Aggregation-expression compilation for the document store.

Implements the operator subset PolyFrame's MongoDB rewrite rules emit
(see the paper's Appendix C): field paths (``"$attr"``), pipeline variables
(``"$$var"``), comparison / logical / arithmetic operators, string and type
conversion operators.

An expression is compiled once per pipeline stage: :func:`compile_expr`
switches on the operator and returns a closure ``fn(doc, variables)`` that
does only the per-document work.  An unknown operator, a malformed
``$cond`` or an unbound variable compiles to a closure that raises when
*called*, so an untaken branch or an empty input stays silent.

Absent fields evaluate to the MISSING sentinel.  Comparisons use a total
BSON-like order in which ``missing < null < booleans < numbers < strings``
(via :func:`repro.storage.keys.index_key`), which makes
``{"$lt": ["$field", None]}`` true exactly for missing fields — the trick
PolyFrame's expression-13 rewrite relies on.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable, Mapping

from repro.errors import ExecutionError
from repro.storage.keys import SENTINEL_MISSING, index_key, is_absent

#: A compiled expression: ``fn(document, pipeline_variables) -> value``.
Compiled = Callable[[Any, Any], Any]


def get_path(document: Any, path: str) -> Any:
    """Resolve a (possibly dotted) field path; absent yields MISSING."""
    current = document
    for part in path.split("."):
        if not isinstance(current, dict) or part not in current:
            return SENTINEL_MISSING
        current = current[part]
    return current


def compile_path(path: str) -> Compiled:
    """The closure form of :func:`get_path` over pipeline documents (dicts)."""
    if "." not in path:
        return lambda doc, _variables: doc.get(path, SENTINEL_MISSING)
    return lambda doc, _variables: get_path(doc, path)


def compile_expr(expr: Any) -> Compiled:
    """Compile an aggregation expression into ``fn(doc, variables)``."""
    if callable(expr):  # an operand compile_match already compiled
        return expr
    if isinstance(expr, str):
        if expr.startswith("$$"):
            return _variable(expr)
        if expr.startswith("$"):
            return compile_path(expr[1:])
    elif isinstance(expr, dict):
        if len(expr) == 1:
            op, operand = next(iter(expr.items()))
            if op.startswith("$"):
                build = _OPERATORS.get(op)
                if build is None:
                    return _raises(f"unknown aggregation operator {op!r}")
                return build(operand)
        # A document literal with computed members.
        members = [(key, compile_expr(value)) for key, value in expr.items()]
        return lambda doc, variables: {key: fn(doc, variables) for key, fn in members}
    elif isinstance(expr, list):
        items = [compile_expr(item) for item in expr]
        return lambda doc, variables: [fn(doc, variables) for fn in items]
    return lambda _doc, _variables: expr  # string / numeric / boolean / None literal


def compile_match(*specs: Mapping[str, Any]) -> Compiled:
    """Compile ``$match`` specifications into one predicate (their conjunction).

    ``$expr`` members are aggregation expressions; every other member is
    the query-language form, whose operands are *literals* — in
    ``{"s": {"$eq": "$a"}}`` and ``{"s": "$a"}`` alike, ``"$a"`` is a
    string, not a field path.
    """
    tests: list[Compiled] = []
    for key, condition in itertools.chain.from_iterable(spec.items() for spec in specs):
        if key == "$expr":
            tests.append(compile_expr(condition))
        elif isinstance(condition, dict) and any(k.startswith("$") for k in condition):
            field = compile_path(key)
            tests.extend(
                compile_expr({op: [field, {"$literal": operand}]})
                for op, operand in condition.items()
            )
        else:
            tests.append(_equals(compile_path(key), condition))
    if len(tests) == 1:
        return tests[0]
    return _all_of(tests)


class ExprEvaluator:
    """One-shot evaluation: ``compile_expr(expr)(doc, variables)``."""

    def __init__(self, variables: Mapping[str, Any] | None = None) -> None:
        self._variables = dict(variables or {})

    def evaluate(self, expr: Any, doc: Mapping[str, Any]) -> Any:
        return compile_expr(expr)(doc, self._variables)


# ----------------------------------------------------------------------
# Closure builders, one per operator family
# ----------------------------------------------------------------------


def _raises(message: str) -> Compiled:
    def fail(_doc: Any, _variables: Any) -> Any:
        raise ExecutionError(message)

    return fail


def _variable(expr: str) -> Compiled:
    name, dotted, rest = expr[2:].partition(".")

    def read(_doc: Any, variables: Any) -> Any:
        if not variables or name not in variables:
            raise ExecutionError(f"undefined pipeline variable {expr!r}")
        value = variables[name]
        return get_path(value, rest) if dotted else value

    return read


def _equals(field: Compiled, constant: Any) -> Compiled:
    return lambda doc, variables: field(doc, variables) == constant


def _all_of(items: list[Compiled]) -> Compiled:
    def conjunction(doc: Any, variables: Any) -> bool:
        for item in items:
            if not item(doc, variables):  # MISSING and None are falsy
                return False
        return True

    return conjunction


def _comparison(compare: Callable[[Any, Any], bool]) -> Callable[[Any], Compiled]:
    def build(operand: Any) -> Compiled:
        if not isinstance(operand, list) or len(operand) != 2:
            return _raises("comparison operators take a two-element array")
        left, right = compile_expr(operand[0]), compile_expr(operand[1])
        constant = _scalar_literal(operand[1])
        if constant is _NOT_LITERAL:

            def both_computed(doc: Any, variables: Any) -> bool:
                value, other = left(doc, variables), right(doc, variables)
                return compare(index_key(value), index_key(other))

            return both_computed
        constant_key = index_key(constant)
        # An int or str of the constant's own type orders as its key does.
        kind = type(constant) if type(constant) in (int, str) else None

        def against_constant(doc: Any, variables: Any) -> bool:
            value = left(doc, variables)
            if type(value) is kind:
                return compare(value, constant)
            return compare(index_key(value), constant_key)

        return against_constant

    return build


_NOT_LITERAL = object()
_SCALARS = (int, float, bool, str, type(None))


def _scalar_literal(expr: Any) -> Any:
    """The constant a scalar-literal operand evaluates to, else _NOT_LITERAL."""
    if isinstance(expr, dict) and list(expr) == ["$literal"]:
        expr = expr["$literal"]
    elif isinstance(expr, str) and expr.startswith("$"):
        return _NOT_LITERAL
    return expr if type(expr) in _SCALARS else _NOT_LITERAL


def _or(operand: Any) -> Compiled:
    items = [compile_expr(item) for item in operand]
    return lambda doc, variables: any(item(doc, variables) for item in items)


def _not(operand: Any) -> Compiled:
    inner = compile_expr(operand[0] if isinstance(operand, list) else operand)
    return lambda doc, variables: not inner(doc, variables)


def _arithmetic(func: Callable[[Any, Any], Any]) -> Callable[[Any], Compiled]:
    def build(operand: Any) -> Compiled:
        items = [compile_expr(item) for item in operand]

        def apply(doc: Any, variables: Any) -> Any:
            values = [item(doc, variables) for item in items]
            if any(is_absent(value) for value in values):
                return None
            result = values[0]
            for value in values[1:]:
                result = func(result, value)
            return result

        return apply

    return build


def _unary(func: Callable[[Any], Any], if_absent: Any = None) -> Callable[[Any], Compiled]:
    def build(operand: Any) -> Compiled:
        inner = compile_expr(operand)

        def apply(doc: Any, variables: Any) -> Any:
            value = inner(doc, variables)
            return if_absent if is_absent(value) else func(value)

        return apply

    return build


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)  # not booleans


def _if_null(operand: Any) -> Compiled:
    first, fallback = compile_expr(operand[0]), compile_expr(operand[1])

    def apply(doc: Any, variables: Any) -> Any:
        value = first(doc, variables)
        return fallback(doc, variables) if is_absent(value) else value

    return apply


def _concat(operand: Any) -> Compiled:
    items = [compile_expr(item) for item in operand]

    def apply(doc: Any, variables: Any) -> Any:
        values = [item(doc, variables) for item in items]
        if any(is_absent(value) for value in values):
            return None
        return "".join(str(value) for value in values)

    return apply


def _in(operand: Any) -> Compiled:
    needle, haystack = compile_expr(operand[0]), compile_expr(operand[1])

    def test(doc: Any, variables: Any) -> bool:
        value = needle(doc, variables)
        members = haystack(doc, variables)
        if not isinstance(members, list):
            raise ExecutionError("$in requires an array as its second operand")
        target = index_key(value)
        return any(index_key(member) == target for member in members)

    return test


def _cond(operand: Any) -> Compiled:
    # Array form only: [if, then, else] — lazy, the untaken branch is
    # never evaluated (matching MongoDB).
    if not isinstance(operand, list) or len(operand) != 3:
        return _raises("$cond takes an [if, then, else] array")
    test, then, otherwise = (compile_expr(item) for item in operand)
    return lambda doc, variables: (
        then(doc, variables) if test(doc, variables) else otherwise(doc, variables)
    )


_OPERATORS: dict[str, Callable[[Any], Compiled]] = {
    "$eq": _comparison(operator.eq),
    "$ne": _comparison(operator.ne),
    "$gt": _comparison(operator.gt),
    "$gte": _comparison(operator.ge),
    "$lt": _comparison(operator.lt),
    "$lte": _comparison(operator.le),
    "$and": lambda operand: _all_of([compile_expr(item) for item in operand]),
    "$or": _or,
    "$not": _not,
    "$add": _arithmetic(operator.add),
    "$subtract": _arithmetic(operator.sub),
    "$multiply": _arithmetic(operator.mul),
    "$divide": _arithmetic(operator.truediv),
    "$mod": _arithmetic(operator.mod),
    "$toUpper": _unary(lambda value: str(value).upper(), if_absent=""),
    "$toLower": _unary(lambda value: str(value).lower(), if_absent=""),
    "$toInt": _unary(lambda value: int(float(value))),
    "$toString": _unary(str),
    "$abs": _unary(abs),
    "$isNumber": _unary(_is_number, if_absent=False),
    "$ifNull": _if_null,
    "$concat": _concat,
    "$in": _in,
    "$cond": _cond,
    "$literal": lambda operand: lambda _doc, _variables: operand,
}
