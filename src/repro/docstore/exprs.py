"""Aggregation-expression compilation for the document store.

Implements the operator subset PolyFrame's MongoDB rewrite rules emit
(see the paper's Appendix C).  An expression is compiled once per pipeline
stage: :func:`compile_expr` switches on the operator and returns a closure
``fn(doc, variables)`` that does only the per-document work.  An unknown
operator, a malformed operand or an unbound variable compiles to a closure
that raises when *called*, so an untaken branch or an empty input stays
silent.

Absent fields evaluate to the MISSING sentinel.  Comparisons, arithmetic
and the conversions are :mod:`repro.exec.scalar`'s under its ``mongo``
dialect (``docs/execution.md#scalar-semantics``) — comparisons use the
total order ``missing < null < booleans < numbers < strings``, which makes
``{"$lt": ["$field", None]}`` true exactly for missing fields, the trick
PolyFrame's expression-13 rewrite relies on.  What stays here is MongoDB's
own: field paths, ``$$`` variables, the truthy ``$and`` / ``$or`` /
``$not``, ``$cond``, ``$in``, ``$ifNull`` and each operator's answer for an
absent operand.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Mapping

from repro.errors import ExecutionError
from repro.exec import scalar
from repro.exec.scalar import raises as _raises
from repro.storage.keys import SENTINEL_MISSING, index_key

MONGO = scalar.DIALECTS["mongo"]

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


# ----------------------------------------------------------------------
# Closure builders, one per operator family
# ----------------------------------------------------------------------


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


def _comparison(op: str) -> Callable[[Any], Compiled]:
    def build(operand: Any) -> Compiled:
        if not isinstance(operand, list) or len(operand) != 2:
            return _raises("comparison operators take a two-element array")
        left, right = compile_expr(operand[0]), compile_expr(operand[1])
        constant = _scalar_literal(operand[1])
        return scalar.compile_compare(op, MONGO, left, right, constant)

    return build


_SCALARS = (int, float, bool, str, type(None))


def _scalar_literal(expr: Any) -> Any:
    """The constant a scalar-literal operand evaluates to, else ``NOT_CONSTANT``."""
    if isinstance(expr, dict) and list(expr) == ["$literal"]:
        expr = expr["$literal"]
    elif isinstance(expr, str) and expr.startswith("$"):
        return scalar.NOT_CONSTANT
    return expr if type(expr) in _SCALARS else scalar.NOT_CONSTANT


def _items(operand: Any) -> list[Compiled]:
    """The compiled operands of an n-ary operator; a lone operand is a list of one."""
    return [compile_expr(item) for item in (operand if isinstance(operand, list) else [operand])]


def _or(operand: Any) -> Compiled:
    items = _items(operand)
    return lambda doc, variables: any(item(doc, variables) for item in items)


def _not(operand: Any) -> Compiled:
    if isinstance(operand, list):  # ``[x, ...]`` negates its first member
        if not operand:
            return _raises("$not takes one operand")
        operand = operand[0]
    inner = compile_expr(operand)
    return lambda doc, variables: not inner(doc, variables)


def _fold(op: str, label: str) -> Callable[[Any], Compiled]:
    return lambda operand: scalar.compile_fold(op, MONGO, _items(operand), label)


def _call(name: str, label: str, if_absent: Any = None) -> Callable[[Any], Compiled]:
    """A one-operand conversion; MongoDB answers *if_absent* for an absent operand."""
    return lambda operand: scalar.compile_call(name, label, [compile_expr(operand)], if_absent)


def _if_null(operand: Any) -> Compiled:
    if not isinstance(operand, list) or len(operand) != 2:
        return _raises("$ifNull takes a two-element array")
    first, fallback = _items(operand)

    def apply(doc: Any, variables: Any) -> Any:
        value = first(doc, variables)
        if value is None or value is SENTINEL_MISSING:
            return fallback(doc, variables)
        return value

    return apply


def _in(operand: Any) -> Compiled:
    if not isinstance(operand, list) or len(operand) != 2:
        return _raises("$in takes a two-element array")
    needle, haystack = _items(operand)

    def test(doc: Any, variables: Any) -> bool:
        value = needle(doc, variables)
        members = haystack(doc, variables)
        if not isinstance(members, list):
            raise ExecutionError("$in requires an array as its second operand")
        try:
            target = index_key(value)
            return any(index_key(member) == target for member in members)
        except TypeError:
            raise scalar.compare_error(value, members) from None

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
    "$eq": _comparison("="),
    "$ne": _comparison("!="),
    "$gt": _comparison(">"),
    "$gte": _comparison(">="),
    "$lt": _comparison("<"),
    "$lte": _comparison("<="),
    "$and": lambda operand: _all_of(_items(operand)),
    "$or": _or,
    "$not": _not,
    "$add": _fold("+", "$add"),
    "$subtract": _fold("-", "$subtract"),
    "$multiply": _fold("*", "$multiply"),
    "$divide": _fold("/", "$divide"),
    "$mod": _fold("%", "$mod"),
    "$toUpper": _call("UPPER", "$toUpper", if_absent=""),
    "$toLower": _call("LOWER", "$toLower", if_absent=""),
    "$toInt": _call("TO_INT", "$toInt"),
    "$toString": _call("TO_STRING", "$toString"),
    "$abs": _call("ABS", "$abs"),
    "$isNumber": _call("IS_NUMBER", "$isNumber", if_absent=False),
    "$ifNull": _if_null,
    "$concat": lambda operand: scalar.compile_call("CONCAT", "$concat", _items(operand), None),
    "$in": _in,
    "$cond": _cond,
    "$literal": lambda operand: lambda _doc, _variables: operand,
}
