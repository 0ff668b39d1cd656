"""Regenerate ``engine_exprs.json``, the expression corpus of the row engines.

Run from the repo root::

    PYTHONPATH=src python tests/golden/generate_engine_exprs.py

The corpus pins what an aggregation expression, a ``$match`` spec and a
Cypher expression evaluate to — value, or error class and message — over
documents with NULL, absent fields, booleans, mixed int/float/str, nested
paths and ``$$`` variables.  ``tests/test_engine_compile.py`` replays it.

The committed file was captured at the parent commit of PR 17 from the
tree-walking interpreters the compiled closures replaced (same case
generator, the three ``run_*`` functions below pointed at
``ExprEvaluator.evaluate`` / ``_matches`` / ``CypherExecutor._eval``).
Cases carrying an ``edited`` note are the ones whose expectation PR 17
changed on purpose; the note holds the interpreter's answer.  Case
generation depends only on ``SEED``, never on the engine.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any

SEED = 1707
CASES_PER_LANGUAGE = 700
HERE = os.path.dirname(os.path.abspath(__file__))
MISSING_MARK = "<<MISSING>>"

# ----------------------------------------------------------------------
# MongoDB: documents, variables, expression and $match generators
# ----------------------------------------------------------------------
DOCS: list[dict[str, Any]] = [
    {"a": 3, "b": 2.5, "s": "x", "t": "$a", "n": None, "flag": True,
     "nested": {"c": 7, "d": {"e": "deep"}}, "arr": [1, "x", None], "m": 3},
    {"a": 0, "b": -1.0, "s": "Hello", "t": "x", "flag": False,
     "nested": {"c": None}, "arr": [], "m": "3"},
    {"a": -4, "s": "", "n": None, "nested": {"d": {"e": 1}}, "m": 3.0},
    {"a": 3.0, "b": 0.0, "s": "x", "t": "$s", "flag": None, "nested": 5, "m": None},
    {"b": 7.25, "s": "abc", "n": 1, "flag": True, "arr": ["$a", 3], "m": True},
    {"a": 10, "b": 4.0, "s": "10", "t": "", "nested": {"c": "7", "d": {}}, "m": [3]},
    {},
]
VARIABLES: dict[str, Any] = {"v": 42, "w": {"x": 1, "y": {"z": "zz"}}, "u": None, "str": "x"}

_PATHS = ["$a", "$b", "$s", "$t", "$n", "$flag", "$m", "$zz", "$nested.c",
          "$nested.d.e", "$nested.zz", "$a.b", "$arr"]
_VARS = ["$$v", "$$w.x", "$$w.y.z", "$$w.q", "$$u", "$$u.x", "$$str", "$$undefined"]
_LITERALS = [0, 1, 3, -4, 2.5, 3.0, 10, "x", "", "abc", "Hello", None, True, False]
_COMPARE = ["$eq", "$ne", "$gt", "$gte", "$lt", "$lte"]
_ARITH = ["$add", "$subtract", "$multiply", "$divide", "$mod"]
_UNARY = ["$toUpper", "$toLower", "$toInt", "$toString", "$abs", "$isNumber"]


def _mongo_expr(rng: random.Random, depth: int) -> Any:
    roll = rng.random()
    if depth <= 0 or roll < 0.30:
        pool = rng.choice([_PATHS, _PATHS, _LITERALS, _VARS])
        return rng.choice(pool)
    sub = lambda: _mongo_expr(rng, depth - 1)  # noqa: E731
    kind = rng.choice(
        ["cmp", "cmp", "logic", "arith", "unary", "ifnull", "concat", "in", "cond",
         "literal", "doc", "array", "bad"]
    )
    if kind == "cmp":
        return {rng.choice(_COMPARE): [sub(), sub()]}
    if kind == "logic":
        op = rng.choice(["$and", "$or", "$not", "$not"])
        if op == "$not":
            return {"$not": [sub()] if rng.random() < 0.5 else sub()}
        return {op: [sub() for _ in range(rng.randint(0, 3))]}
    if kind == "arith":
        return {rng.choice(_ARITH): [sub() for _ in range(rng.randint(1, 3))]}
    if kind == "unary":
        return {rng.choice(_UNARY): sub()}
    if kind == "ifnull":
        return {"$ifNull": [sub(), sub()]}
    if kind == "concat":
        return {"$concat": [sub() for _ in range(rng.randint(0, 3))]}
    if kind == "in":
        members = [sub() for _ in range(rng.randint(0, 3))]
        return {"$in": [sub(), members if rng.random() < 0.85 else sub()]}
    if kind == "cond":
        return {"$cond": [sub() for _ in range(3 if rng.random() < 0.85 else 2)]}
    if kind == "literal":
        return {"$literal": rng.choice(["$a", {"$add": [1, 2]}, [1, "$a"], 5, None])}
    if kind == "doc":
        keys = rng.sample(["k", "j", "$weird", "a"], rng.randint(1, 3))
        if keys == ["$weird"]:
            keys = ["k"]
        return {key: sub() for key in keys}
    if kind == "array":
        return [sub() for _ in range(rng.randint(0, 3))]
    return rng.choice(
        [{"$bogus": sub()}, {"$eq": [sub()]}, {"$gt": sub()}, {"$lt": [sub(), sub(), sub()]}]
    )


_FIELDS = ["a", "b", "s", "t", "n", "flag", "m", "zz", "nested.c", "nested.d.e", "nested", "arr"]
_OPERANDS = _LITERALS + ["$a", "$s", "$zz", "$nested.c", "$$v", 3, "x", 7]


def _mongo_match(rng: random.Random) -> dict[str, Any]:
    spec: dict[str, Any] = {}
    for _ in range(rng.choice([0, 1, 1, 1, 2, 3])):
        roll = rng.random()
        if roll < 0.25:
            spec["$expr"] = _mongo_expr(rng, 2)
        elif roll < 0.50:
            spec[rng.choice(_FIELDS)] = rng.choice(
                _OPERANDS + [{"c": 7, "d": {"e": "deep"}}, [1, "x", None], []]
            )
        else:
            condition: dict[str, Any] = {}
            for _ in range(rng.choice([1, 1, 2])):
                op = rng.choice(_COMPARE + ["$in", "$in", "$exists"])
                if op == "$in":
                    condition[op] = [rng.choice(_OPERANDS) for _ in range(rng.randint(0, 3))]
                else:
                    condition[op] = rng.choice(_OPERANDS)
            spec[rng.choice(_FIELDS)] = condition
    return spec


def mongo_cases(rng: random.Random) -> list[dict[str, Any]]:
    cases = []
    for index in range(CASES_PER_LANGUAGE):
        doc = rng.randrange(len(DOCS))
        with_vars = rng.random() < 0.8
        if index % 3 == 2:
            cases.append({"match": _mongo_match(rng), "doc": doc, "vars": with_vars})
        else:
            cases.append({"expr": _mongo_expr(rng, 3), "doc": doc, "vars": with_vars})
    return cases


# ----------------------------------------------------------------------
# Cypher: rows (node-backed, map-backed, scalar bindings) and expressions
# ----------------------------------------------------------------------
ROWS: list[dict[str, list]] = [
    {"t": ["node", {"a": 3, "b": 2.5, "s": "x", "n": None, "flag": True, "m": 3}],
     "r": ["map", {"a": 3, "s": "y", "m": "3"}], "x": ["value", 5]},
    {"t": ["node", {"a": 0, "b": -1.0, "s": "Hello", "flag": False, "m": "3"}],
     "r": ["node", {"a": 1, "s": "Hello"}], "x": ["value", None]},
    {"t": ["map", {"a": -4, "s": "", "n": None, "m": 3.0, "inner": {"k": 1}}],
     "r": ["value", None], "x": ["value", "x"]},
    {"t": ["node", {"b": 7.25, "s": "abc", "n": 1, "m": True}],
     "r": ["map", {}], "x": ["value", 2.5]},
    {"t": ["value", 7], "r": ["node", {"a": 10, "s": "10"}], "x": ["value", True]},
]
_C_ATOMS = ["t.a", "t.b", "t.s", "t.n", "t.flag", "t.m", "t.zz", "r.a", "r.s", "r.m",
            "q.a", "x", "x", "0", "1", "3", "-4", "2.5", "3.0", "'x'", "''", "'abc'",
            "'Hello'", "NULL", "TRUE", "FALSE", "q"]
_C_BINOPS = ["=", "!=", "<>", ">", "<", ">=", "<=", "+", "-", "*", "/", "%", "AND", "OR"]
_C_FUNCS = ["upper", "lower", "toInteger", "toInt", "toString", "abs", "size", "UPPER"]


def _cypher_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.28:
        return rng.choice(_C_ATOMS)
    sub = lambda: _cypher_expr(rng, depth - 1)  # noqa: E731
    kind = rng.choice(
        ["bin", "bin", "bin", "bin", "not", "neg", "isnull", "func", "in", "map",
         "projection", "bad"]
    )
    if kind == "bin":
        return f"({sub()} {rng.choice(_C_BINOPS)} {sub()})"
    if kind == "not":
        return f"(NOT {sub()})"
    if kind == "neg":
        return f"(-{sub()})"
    if kind == "isnull":
        return f"({sub()} IS {'NOT ' if rng.random() < 0.5 else ''}NULL)"
    if kind == "func":
        return f"{rng.choice(_C_FUNCS)}({sub()})"
    if kind == "in":
        return f"({sub()} IN [{', '.join(sub() for _ in range(rng.randint(1, 3)))}])"
    if kind == "map":
        return "{" + ", ".join(f"'k{i}': {sub()}" for i in range(rng.randint(0, 2))) + "}"
    if kind == "projection":
        var = rng.choice(["t", "t", "r", "x", "q"])
        pieces = [".*"] if rng.random() < 0.5 else []
        pieces += [f"'p{i}': {sub()}" for i in range(rng.randint(0, 2))]
        if rng.random() < 0.3:
            pieces.append(rng.choice(["r", "x", "q"]))
        return f"{var}{{{', '.join(pieces)}}}"
    return rng.choice([f"foo({sub()})", f"max({sub()})", "count(*)", "upper()", f"upper({sub()}, q)"])


def cypher_cases(rng: random.Random) -> list[dict[str, Any]]:
    return [
        {"cypher": _cypher_expr(rng, 3), "row": rng.randrange(len(ROWS))}
        for _ in range(CASES_PER_LANGUAGE)
    ]


# ----------------------------------------------------------------------
# The engines under test (the parent-commit capture swapped these three)
# ----------------------------------------------------------------------
def run_mongo_expr(expr: Any, doc: dict, variables: dict) -> Any:
    from repro.docstore.exprs import compile_expr

    return compile_expr(expr)(doc, variables)


def run_mongo_match(spec: dict, doc: dict, variables: dict) -> bool:
    from repro.docstore.exprs import compile_match

    return bool(compile_match(spec)(doc, variables))


def run_cypher(text: str, row_spec: dict[str, list]) -> Any:
    from repro.graphdb.executor import _compile

    return _compile(parse_cypher_expr(text))(build_row(row_spec), None)


def parse_cypher_expr(text: str):
    from repro.graphdb.cypher_parser import _Parser, tokenize

    return _Parser(tokenize(text)).parse_expression()


def build_row(row_spec: dict[str, list]) -> dict[str, Any]:
    """Materialize a row spec: node bindings get a real store behind them."""
    from repro.graphdb.executor import NodeHandle
    from repro.graphdb.store import GraphStore

    store = GraphStore()
    row: dict[str, Any] = {}
    for name, (kind, payload) in row_spec.items():
        if kind == "node":
            row[name] = NodeHandle(store, store.create_node("L", payload))
        else:
            row[name] = payload
    return row


def encode(value: Any) -> Any:
    """JSON-safe, type-exact rendering of an engine value."""
    from repro.graphdb.executor import NodeHandle
    from repro.storage.keys import SENTINEL_MISSING

    if value is SENTINEL_MISSING:
        return MISSING_MARK
    if isinstance(value, NodeHandle):
        return {"<<node>>": encode(value.materialize())}
    if isinstance(value, dict):
        return {str(key): encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    return value


def outcome(thunk) -> dict[str, Any]:
    """``{"value": ...}`` or ``{"error": [class name, message]}``."""
    try:
        return {"value": encode(thunk())}
    except Exception as exc:  # noqa: BLE001 - the class and message are the pin
        return {"error": [type(exc).__name__, str(exc)]}


def run_case(corpus: dict[str, Any], language: str, case: dict[str, Any]) -> dict[str, Any]:
    if language == "cypher":
        return outcome(lambda: run_cypher(case["cypher"], corpus["rows"][case["row"]]))
    doc = corpus["docs"][case["doc"]]
    variables = corpus["variables"] if case["vars"] else {}
    if "match" in case:
        return outcome(lambda: run_mongo_match(case["match"], doc, variables))
    return outcome(lambda: run_mongo_expr(case["expr"], doc, variables))


def generate() -> dict[str, Any]:
    rng = random.Random(SEED)
    corpus = {
        "seed": SEED,
        "docs": DOCS,
        "variables": VARIABLES,
        "rows": ROWS,
        "mongo": mongo_cases(rng),
        "cypher": cypher_cases(rng),
    }
    for language in ("mongo", "cypher"):
        for case in corpus[language]:
            case["want"] = run_case(corpus, language, case)
    return corpus


def dump(corpus: dict[str, Any], handle) -> None:
    """One case per line, so an edited expectation is a one-line diff."""
    head = {key: value for key, value in corpus.items() if key not in ("mongo", "cypher")}
    handle.write(json.dumps(head)[:-1])
    for language in ("mongo", "cypher"):
        lines = ",\n".join(json.dumps(case) for case in corpus[language])
        handle.write(f',\n"{language}": [\n{lines}\n]')
    handle.write("}\n")


def main() -> None:
    path = os.path.join(HERE, "engine_exprs.json")
    with open(path, "w", encoding="utf-8") as handle:
        dump(generate(), handle)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
