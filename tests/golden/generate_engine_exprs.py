"""Regenerate ``engine_exprs.json``, the expression corpus of the four engines.

Run from the repo root (no section names: every section)::

    PYTHONPATH=src python tests/golden/generate_engine_exprs.py [SECTION ...]

The corpus pins what an aggregation expression, a ``$match`` spec, a
Cypher expression and a SQL / SQL++ expression evaluate to — value, or
error class and message — over records with NULL, absent fields,
booleans, mixed int/float/str, nested paths and ``$$`` variables; and
what COUNT(*), COUNT, SUM, AVG, STD, MIN and MAX answer on every engine,
the vector engine and the three 4-shard clusters (``aggregates``).
``tests/test_engine_compile.py`` and ``tests/test_scalar_semantics.py``
replay it.

The ``mongo`` and ``cypher`` sections were captured at the parent commit
of PR 17 from the tree-walking interpreters the compiled closures
replaced; ``sql``, ``sqlpp`` and ``aggregates`` were captured before the
four engines shared one scalar kernel (``repro.exec.scalar``).  A SQL
case's ``want`` is the row ``Evaluator``'s answer and ``vector`` the
``VectorEvaluator``'s where the two differed.  Cases carrying an
``edited`` note are the ones whose expectation a later change made on
purpose; the note holds the earlier answer.  Case generation depends only
on ``SEED``, never on the engine.  Regenerating a section drops its
``edited`` notes; the other sections are kept as committed.
"""

from __future__ import annotations

import json
import os
import random
import sys
from typing import Any

SEED = 1707
CASES_PER_LANGUAGE = 700
HERE = os.path.dirname(os.path.abspath(__file__))
MISSING_MARK = "<<MISSING>>"
SECTIONS = ("mongo", "cypher", "sql", "sqlpp", "aggregates")

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
# SQL / SQL++: records under binding ``t`` and expression trees
# ----------------------------------------------------------------------
#: Expressions are JSON trees: ``["col", name]``, ``["lit", value]``,
#: ``["bin", op, l, r]``, ``["un", op, x]``, ``["is", mode, negated, x]``,
#: ``["fn", name, [args]]``; :func:`sql_ast` builds the parser's nodes.
SQL_RECORDS: list[dict[str, Any]] = [
    {"a": 3, "b": 2.5, "s": "x", "n": None, "flag": True, "m": 3, "q": "3.7"},
    {"a": 0, "b": -1.0, "s": "Hello", "flag": False, "m": "3", "q": "x"},
    {"a": -4, "s": "", "n": None, "m": 3.0, "q": -9},
    {"a": 3.0, "b": 0.0, "s": "x", "flag": None, "m": None, "q": "  pad "},
    {"b": 7.25, "s": "abc", "n": 1, "flag": True, "m": True},
    {"a": 10, "b": 4.0, "s": "10", "n": 0, "m": -2, "q": 16},
    {},
]
_S_COLUMNS = ["a", "b", "s", "n", "flag", "m", "q", "zz"]
_S_LITERALS = [0, 1, 3, -4, 2.5, 3.0, 10, "x", "", "abc", "3.7", None, True, False]
_S_COMPARE = ["=", "!=", "<", "<=", ">", ">="]
_S_ARITH = ["+", "-", "*", "/", "%", "||"]
#: Every scalar function with the argument counts it is called with
#: (a count the function does not take is drawn now and then).
_S_FUNCTIONS = {
    "UPPER": (1,), "LOWER": (1,), "LENGTH": (1,), "ABS": (1,), "ROUND": (1, 2),
    "FLOOR": (1,), "CEIL": (1,), "SQRT": (1,), "TO_STRING": (1,), "TO_INT": (1,),
    "TO_DOUBLE": (1,), "SUBSTR": (2, 3), "TRIM": (1,), "CONCAT": (0, 1, 2, 3),
}


def _sql_expr(rng: random.Random, depth: int, dialect: str) -> list:
    if depth <= 0 or rng.random() < 0.30:
        if rng.random() < 0.55:
            return ["col", rng.choice(_S_COLUMNS)]
        return ["lit", rng.choice(_S_LITERALS)]
    sub = lambda: _sql_expr(rng, depth - 1, dialect)  # noqa: E731
    kind = rng.choice(["cmp", "cmp", "logic", "arith", "arith", "not", "neg", "is",
                       "func", "func", "bad"])
    if kind == "cmp":
        return ["bin", rng.choice(_S_COMPARE), sub(), sub()]
    if kind == "logic":
        return ["bin", rng.choice(["AND", "OR"]), sub(), sub()]
    if kind == "arith":
        return ["bin", rng.choice(_S_ARITH), sub(), sub()]
    if kind in ("not", "neg"):
        return ["un", "NOT" if kind == "not" else "-", sub()]
    if kind == "is":
        modes = ["null"] if dialect == "sql" else ["null", "missing", "unknown"]
        return ["is", rng.choice(modes), rng.random() < 0.4, sub()]
    if kind == "func":
        name = rng.choice(sorted(_S_FUNCTIONS))
        count = rng.choice(_S_FUNCTIONS[name])
        if rng.random() < 0.08:
            count += rng.choice([-1, 1]) if count else 1
        return ["fn", name, [sub() for _ in range(count)]]
    return rng.choice([["fn", "BOGUS", [sub()]], ["fn", "MAX", [sub()]],
                       ["fn", "TO_INT", [["lit", "x"]]], ["fn", "SQRT", [["lit", -4]]]])


def sql_cases(rng: random.Random, dialect: str) -> list[dict[str, Any]]:
    return [
        {"sql": _sql_expr(rng, 3, dialect), "row": rng.randrange(len(SQL_RECORDS))}
        for _ in range(CASES_PER_LANGUAGE)
    ]


# ----------------------------------------------------------------------
# Aggregates: every aggregate on every engine, plain and grouped
# ----------------------------------------------------------------------
ABSENT = "<<absent>>"
#: The aggregated column ``v`` of eight records (``k`` their key, ``g``
#: a two-valued group key mixing the records of each half).
AGG_DATA: dict[str, list[Any]] = {
    "alternating": [i if i % 2 == 0 else f"s{i}" for i in range(8)],
    "mixed": [3, 2.5, None, True, "x", ABSENT, -4, 0.5],
    "numeric": [3, 2.5, None, 10, ABSENT, -4, 7, 0],
    "allnull": [None] * 8,
    "absent": [ABSENT] * 8,
    "empty": [],
}
AGGREGATES = ("COUNT(*)", "COUNT", "SUM", "AVG", "STD", "MIN", "MAX")
AGG_ENGINES = ("postgres", "postgres-vector", "asterixdb", "asterixdb-vector", "mongodb",
               "neo4j", "neo4j-rows", "greenplum-4", "asterixdb-4", "mongodb-4")
_SQL_AGG = {"COUNT(*)": "COUNT(*)", "COUNT": "COUNT(t.v)", "SUM": "SUM(t.v)",
            "AVG": "AVG(t.v)", "STD": "STDDEV(t.v)", "MIN": "MIN(t.v)", "MAX": "MAX(t.v)"}
_MONGO_AGG = {"COUNT(*)": {"$sum": 1}, "COUNT": {"$sum": {"$cond": [{"$gt": ["$v", None]}, 1, 0]}},
              "SUM": {"$sum": "$v"}, "AVG": {"$avg": "$v"}, "STD": {"$stdDevPop": "$v"},
              "MIN": {"$min": "$v"}, "MAX": {"$max": "$v"}}
_CYPHER_AGG = {"COUNT(*)": "count(*)", "COUNT": "count(t.v)", "SUM": "sum(t.v)",
               "AVG": "avg(t.v)", "STD": "stDevP(t.v)", "MIN": "min(t.v)", "MAX": "max(t.v)"}


def aggregate_cases() -> list[dict[str, Any]]:
    return [
        {"engine": engine, "data": data, "agg": agg, "grouped": grouped}
        for engine in AGG_ENGINES for data in AGG_DATA for agg in AGGREGATES
        for grouped in (False, True)
    ]


def agg_records(data: str) -> list[dict[str, Any]]:
    return [{"k": i, "g": (i // 2) % 2, **({} if v == ABSENT else {"v": v})}
            for i, v in enumerate(AGG_DATA[data])]


def build_engine(engine: str, data: str) -> Any:
    """A fresh engine (or 4-shard cluster) holding *data* as ``N.d`` / ``d``."""
    from repro.cluster import AsterixDBCluster, GreenplumCluster, MongoDBCluster
    from repro.docstore import MongoDatabase
    from repro.graphdb import Neo4jDatabase
    from repro.resilience import FaultInjector
    from repro.sqlengine import SQLDatabase
    from repro.sqlpp import AsterixDB

    records = agg_records(data)
    kind, _, variant = engine.partition("-")
    if variant == "4":  # a rule-less injector: the env's chaos cannot reach it
        knobs = {"fault_injector": FaultInjector(), "query_prep_overhead": 0.0}
        if kind == "greenplum":
            db = GreenplumCluster(4, **knobs)
            db.create_table("N.d", primary_key="k")
            db.insert("N.d", records, shard_key="k")
        elif kind == "asterixdb":
            db = AsterixDBCluster(4, **knobs)
            db.create_dataverse("N")
            db.create_dataset("N", "d", primary_key="k")
            db.load("N.d", records, shard_key="k")
        else:
            db = MongoDBCluster(4, **knobs)
            db.create_collection("d")
            db.insert_many("d", records, shard_key="k")
        return db
    if kind == "postgres":
        db = SQLDatabase(exec_engine=variant or "row")
        db.create_table("N.d", primary_key="k")
        db.insert("N.d", records)
    elif kind == "asterixdb":
        db = AsterixDB(query_prep_overhead=0.0, exec_engine=variant or "row")
        db.create_dataverse("N")
        db.create_dataset("N", "d", primary_key="k")
        db.load("N.d", records)
    elif kind == "mongodb":
        db = MongoDatabase(query_prep_overhead=0.0)
        db.create_collection("d").insert_many(records)
    else:
        db = Neo4jDatabase(query_prep_overhead=0.0)
        db.load("d", records)
    return db


def run_aggregate(db: Any, case: dict[str, Any]) -> list[Any]:
    """The records *case*'s aggregate query answers, groups in key order."""
    kind, _, variant = case["engine"].partition("-")
    agg, grouped = case["agg"], case["grouped"]
    if kind == "mongodb":
        if grouped:
            pipeline = [{"$group": {"_id": {"g": "$g"}, "r": _MONGO_AGG[agg]}},
                        {"$addFields": {"g": "$_id.g"}}, {"$project": {"_id": 0}}]
        else:
            pipeline = [{"$group": {"_id": {}, "r": _MONGO_AGG[agg]}}, {"$project": {"_id": 0}}]
        records = db.aggregate("d", pipeline).records
    elif kind == "neo4j":
        source = "MATCH (t:d) WITH t{.*} AS t" if variant == "rows" else "MATCH (t:d)"
        items = f"t.g AS g, {_CYPHER_AGG[agg]} AS r" if grouped else f"{_CYPHER_AGG[agg]} AS r"
        records = db.execute(f"{source} RETURN {items}").records
    else:
        items = f"t.g AS g, {_SQL_AGG[agg]} AS r" if grouped else f"{_SQL_AGG[agg]} AS r"
        group_by = " GROUP BY t.g" if grouped else ""
        records = db.execute(f"SELECT {items} FROM N.d t{group_by}").records
    return sorted(records, key=lambda record: json.dumps(encode(record), sort_keys=True))


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


def sql_ast(tree: list):
    """The parser's expression nodes for one JSON expression tree."""
    from repro.sqlengine import ast_nodes as n

    kind = tree[0]
    if kind == "col":
        return n.ColumnRef(tree[1], "t")
    if kind == "lit":
        return n.Literal(tree[1])
    if kind == "bin":
        return n.BinaryOp(tree[1], sql_ast(tree[2]), sql_ast(tree[3]))
    if kind == "un":
        return n.UnaryOp(tree[1], sql_ast(tree[2]))
    if kind == "is":
        return n.IsAbsent(sql_ast(tree[3]), tree[1], tree[2])
    return n.FuncCall(tree[1], tuple(sql_ast(arg) for arg in tree[2]))


def run_sql_row(dialect: str, tree: list, record: dict) -> Any:
    from repro.sqlengine.expressions import Evaluator

    return Evaluator(dialect).evaluate(sql_ast(tree), {"t": record})


def run_sql_vector(dialect: str, tree: list, record: dict) -> Any:
    """The one-row batch of *record*, evaluated batch at a time."""
    from repro.exec.batch import ColumnBatch
    from repro.exec.vectorops import VectorEvaluator

    batch = ColumnBatch.from_records([record], alias="t")
    (value,) = VectorEvaluator(dialect).evaluate(sql_ast(tree), batch).to_python()
    return value


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
    """The outcome of one case; a SQL case answers ``(row, vector)``."""
    if language == "cypher":
        return outcome(lambda: run_cypher(case["cypher"], corpus["rows"][case["row"]]))
    if language in ("sql", "sqlpp"):
        record = corpus["records"][case["row"]]
        return (outcome(lambda: run_sql_row(language, case["sql"], record)),
                outcome(lambda: run_sql_vector(language, case["sql"], record)))
    doc = corpus["docs"][case["doc"]]
    variables = corpus["variables"] if case["vars"] else {}
    if "match" in case:
        return outcome(lambda: run_mongo_match(case["match"], doc, variables))
    return outcome(lambda: run_mongo_expr(case["expr"], doc, variables))


def run_aggregates(cases: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The outcome of every aggregate case, one engine build per (engine, data)."""
    built: dict[tuple[str, str], Any] = {}
    out = []
    for case in cases:
        key = (case["engine"], case["data"])
        if key not in built:
            built[key] = build_engine(*key)
        out.append(outcome(lambda: run_aggregate(built[key], case)))
    return out


def generate() -> dict[str, Any]:
    rng = random.Random(SEED)
    corpus = {
        "seed": SEED,
        "docs": DOCS,
        "variables": VARIABLES,
        "rows": ROWS,
        "records": SQL_RECORDS,
        "agg_data": AGG_DATA,
        "mongo": mongo_cases(rng),
        "cypher": cypher_cases(rng),
        "sql": sql_cases(rng, "sql"),
        "sqlpp": sql_cases(rng, "sqlpp"),
        "aggregates": aggregate_cases(),
    }
    for language in ("mongo", "cypher"):
        for case in corpus[language]:
            case["want"] = run_case(corpus, language, case)
    for language in ("sql", "sqlpp"):
        for case in corpus[language]:
            row, vector = run_case(corpus, language, case)
            case["want"] = row
            if vector != row:
                case["vector"] = vector
    for case, got in zip(corpus["aggregates"], run_aggregates(corpus["aggregates"])):
        case["want"] = got
    return corpus


def dump(corpus: dict[str, Any], handle) -> None:
    """One case per line, so an edited expectation is a one-line diff."""
    head = {key: value for key, value in corpus.items() if key not in SECTIONS}
    handle.write(json.dumps(head)[:-1])
    for language in SECTIONS:
        lines = ",\n".join(json.dumps(case) for case in corpus[language])
        handle.write(f',\n"{language}": [\n{lines}\n]')
    handle.write("}\n")


def main(sections: list[str]) -> None:
    path = os.path.join(HERE, "engine_exprs.json")
    corpus = generate()
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            committed = json.load(handle)
        for language in set(SECTIONS) - set(sections or SECTIONS):
            corpus[language] = committed[language]
    with open(path, "w", encoding="utf-8") as handle:
        dump(corpus, handle)
    print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
