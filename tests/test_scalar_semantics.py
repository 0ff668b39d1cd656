"""One scalar semantics under the four engines (``repro.exec.scalar``).

``tests/golden/engine_exprs.json`` pins, besides the MongoDB and Cypher
expression corpus ``tests/test_engine_compile.py`` replays:

* ``sql`` / ``sqlpp`` — 700 seeded expression trees each, evaluated by
  the row ``Evaluator`` and by the ``VectorEvaluator`` over a one-row
  batch (value, or error class and message);
* ``aggregates`` — COUNT(*), COUNT, SUM, AVG, STD, MIN and MAX, plain and
  grouped, over mixed, all-NULL, all-absent and empty inputs on the four
  engines, the vector engine, both graph aggregate paths and the three
  4-shard clusters.

Both were captured before the engines shared one kernel.  The cases that
carry an ``edited`` note (``before``: the earlier answer) are exactly the
ones that failed with a bare Python exception, whose answer is now an
``ExecutionError``, and 4-shard answers that now agree with one node.
Beyond the corpus: a derandomized fuzz over expression trees of all four
dialects (only ``ReproError`` escapes; row equals vector), integer
overflow on every engine, single node
against 4 shards for every merged accumulator, the docs table against
:data:`repro.exec.scalar.DIALECTS`, and no accumulator class outside
``repro.exec.scalar``.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import math
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, ReproError
from repro.exec import scalar

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_engine_exprs", os.path.join(GOLDEN_DIR, "generate_engine_exprs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()


@pytest.fixture(scope="module")
def corpus():
    with open(os.path.join(GOLDEN_DIR, "engine_exprs.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("dialect", ["sql", "sqlpp"])
def test_row_and_vector_evaluators_replay_the_corpus(corpus, dialect):
    cases = corpus[dialect]
    assert len(cases) == GENERATOR.CASES_PER_LANGUAGE
    mismatches = []
    for index, case in enumerate(cases):
        row, vector = GENERATOR.run_case(corpus, dialect, case)
        # Compared as JSON text: 1 vs 1.0 vs true and key order all count.
        if json.dumps(row) != json.dumps(case["want"]):
            mismatches.append((index, "row", case, row))
        if json.dumps(vector) != json.dumps(case.get("vector", case["want"])):
            mismatches.append((index, "vector", case, vector))
    assert not mismatches, mismatches[:5]


def test_every_engine_replays_the_aggregate_corpus(corpus):
    cases = corpus["aggregates"]
    got = GENERATOR.run_aggregates(cases)
    mismatches = [
        (case, answer) for case, answer in zip(cases, got)
        if json.dumps(answer) != json.dumps(case["want"])
    ]
    assert not mismatches, mismatches[:5]


def test_the_sql_sections_cover_values_and_errors(corpus):
    for dialect in ("sql", "sqlpp"):
        wants = [case["want"] for case in corpus[dialect]]
        assert len({tuple(want["error"]) for want in wants if "error" in want}) >= 10
        assert sum("value" in want for want in wants) >= 400
    names = {tree[1] for case in corpus["sql"] for tree in _walk(case["sql"]) if tree[0] == "fn"}
    assert set(GENERATOR._S_FUNCTIONS) <= names


def test_the_generator_reproduces_the_committed_cases(corpus):
    fresh = GENERATOR.generate()
    for section in ("sql", "sqlpp", "aggregates"):
        keep = ("sql", "row") if section != "aggregates" else ("engine", "data", "agg", "grouped")
        assert [{k: case[k] for k in keep} for case in fresh[section]] == [
            {k: case[k] for k in keep} for case in corpus[section]
        ]


def _walk(tree):
    yield tree
    for part in tree[2:]:
        if isinstance(part, list) and part and isinstance(part[0], str):
            yield from _walk(part)
        elif isinstance(part, list):
            for item in part:
                yield from _walk(item)


# ----------------------------------------------------------------------
# The edits: bare Python exceptions became ExecutionErrors
# ----------------------------------------------------------------------
RAW = {"TypeError", "ValueError", "IndexError", "ZeroDivisionError", "KeyError"}
#: Edited expectations per section; mongo + cypher are the 85 of the
#: expression corpus that PR 17 captured.
EDITED_COUNTS = {"mongo": 27, "cypher": 58, "sql": 87, "sqlpp": 85, "aggregates": 135}


def _answer(want):
    """A comparable answer: records as a sorted list of sorted items."""
    if "error" in want:
        return ("error", want["error"][0])
    return ("value", sorted(json.dumps(record, sort_keys=True) for record in want["value"]))


def test_no_expectation_is_a_bare_python_exception(corpus):
    for section in EDITED_COUNTS:
        for case in corpus[section]:
            assert case["want"].get("error", ["ExecutionError"])[0] not in RAW, case


def test_the_edits_are_exactly_the_bare_exceptions_and_the_sharded_disagreements(corpus):
    counts = {}
    for section in EDITED_COUNTS:
        edited = [case for case in corpus[section] if "before" in case.get("edited", {})]
        counts[section] = len(edited)
        for case in edited:
            before, now = case["edited"]["before"], case["want"]
            if section == "aggregates" and case["engine"].endswith("-4"):
                # A 4-shard answer that now agrees with its single node (or a
                # shard's error that now names the aggregate, not ``*``).
                assert _answer(now) == _answer(_single_node_answer(corpus, case)), case
            else:
                assert before["error"][0] in RAW and now["error"][0] == "ExecutionError", case
    assert counts == EDITED_COUNTS


def _single_node_answer(corpus, case):
    engine = {"greenplum-4": "postgres", "asterixdb-4": "asterixdb",
              "mongodb-4": "mongodb"}[case["engine"]]
    (single,) = [other["want"] for other in corpus["aggregates"]
                 if other["engine"] == engine and other["data"] == case["data"]
                 and other["agg"] == case["agg"] and other["grouped"] == case["grouped"]]
    return single


def test_row_and_vector_engines_aggregate_alike(corpus):
    wants = {(c["engine"], c["data"], c["agg"], c["grouped"]): c["want"]
             for c in corpus["aggregates"]}
    for (engine, *rest), want in wants.items():
        if engine.endswith("-vector"):
            assert want == wants[(engine[: -len("-vector")], *rest)], rest
        if engine == "neo4j-rows":
            assert want == wants[("neo4j", *rest)], rest


# ----------------------------------------------------------------------
# Sharded MongoDB $min / $max, and every merged accumulator
# ----------------------------------------------------------------------
def test_every_cluster_merges_like_its_single_node(corpus):
    for case in corpus["aggregates"]:
        if case["engine"].endswith("-4"):
            assert _answer(case["want"]) == _answer(_single_node_answer(corpus, case)), case


def test_sharded_mongodb_min_max_order_mixed_types_like_one_node():
    from repro.cluster import MongoDBCluster
    from repro.docstore import MongoDatabase
    from repro.resilience import FaultInjector

    docs = [{"k": i, "v": i if i % 2 == 0 else f"s{i}"} for i in range(8)]
    pipeline = [{"$group": {"_id": {}, "lo": {"$min": "$v"}, "hi": {"$max": "$v"}}},
                {"$project": {"_id": 0}}]
    single = MongoDatabase(query_prep_overhead=0.0)
    single.create_collection("d").insert_many(docs)
    cluster = MongoDBCluster(4, query_prep_overhead=0.0, fault_injector=FaultInjector())
    cluster.create_collection("d")
    cluster.insert_many("d", docs, shard_key="k")
    assert single.aggregate("d", pipeline).records == [{"lo": 0, "hi": "s7"}]
    assert cluster.aggregate("d", pipeline).records == [{"lo": 0, "hi": "s7"}]


# ----------------------------------------------------------------------
# Fuzz: only ReproError escapes, and row equals vector
# ----------------------------------------------------------------------
HUGE = 10**400  # no float holds it: true division and float arithmetic overflow
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 10), st.sampled_from(["", "x", "3.7", "-2", "Ab"]),
    st.sampled_from([0.0, -0.0, 2.5, -1.5, math.inf, math.nan]), st.just(HUGE),
)


def _sql_trees(dialect):
    modes = ["null"] if dialect == "sql" else ["null", "missing", "unknown"]
    leaves = st.one_of(
        st.builds(lambda v: ["lit", v], SCALARS),
        st.builds(lambda c: ["col", c], st.sampled_from(GENERATOR._S_COLUMNS)),
    )

    def grow(sub):
        return st.one_of(
            st.builds(lambda op, l, r: ["bin", op, l, r],
                      st.sampled_from(["AND", "OR", *GENERATOR._S_COMPARE, *GENERATOR._S_ARITH]),
                      sub, sub),
            st.builds(lambda op, x: ["un", op, x], st.sampled_from(["NOT", "-"]), sub),
            st.builds(lambda m, n, x: ["is", m, n, x], st.sampled_from(modes), st.booleans(), sub),
            st.builds(lambda f, args: ["fn", f, args],
                      st.sampled_from(sorted(GENERATOR._S_FUNCTIONS) + ["BOGUS"]),
                      st.lists(sub, max_size=3)),
        )

    return st.recursive(leaves, grow, max_leaves=8)


def _outcome(thunk):
    try:
        return ("value", json.dumps(GENERATOR.encode(thunk()), sort_keys=True))
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))


@pytest.mark.parametrize("dialect", ["sql", "sqlpp"])
def test_sql_fuzz_raises_only_repro_errors_and_row_equals_vector(dialect):
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(tree=_sql_trees(dialect), row=st.integers(0, len(GENERATOR.SQL_RECORDS) - 1))
    def check(tree, row):
        record = GENERATOR.SQL_RECORDS[row]
        got_row = _outcome(lambda: GENERATOR.run_sql_row(dialect, tree, record))
        got_vector = _outcome(lambda: GENERATOR.run_sql_vector(dialect, tree, record))
        assert got_row == got_vector

    check()


_MONGO_OPS = sorted(["$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$and", "$or", "$not", "$add",
                     "$subtract", "$multiply", "$divide", "$mod", "$toUpper", "$toLower",
                     "$toInt", "$toString", "$abs", "$isNumber", "$ifNull", "$concat", "$in",
                     "$cond", "$literal", "$bogus"])


def _mongo_trees():
    leaves = st.one_of(SCALARS, st.sampled_from(["$a", "$b", "$s", "$n", "$zz", "$nested",
                                                 "$nested.c", "$arr", "$$v", "$$undefined"]))

    def grow(sub):
        return st.one_of(
            st.builds(lambda op, left, right: {op: [left, right]}, st.sampled_from(_MONGO_OPS),
                      sub, sub),
            st.builds(lambda op, operand: {op: operand}, st.sampled_from(_MONGO_OPS),
                      st.one_of(sub, st.lists(sub, max_size=4))),
            st.lists(sub, max_size=3),
            st.dictionaries(st.sampled_from(["k", "j"]), sub, max_size=2),
        )

    return st.recursive(leaves, grow, max_leaves=8)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(expr=_mongo_trees(), doc=st.integers(0, len(GENERATOR.DOCS) - 1))
def test_mongo_fuzz_raises_only_repro_errors(expr, doc):
    _outcome(lambda: GENERATOR.run_mongo_expr(expr, GENERATOR.DOCS[doc], GENERATOR.VARIABLES))


def _cypher_trees():
    from repro.graphdb.cypher_ast import Bin, Func, IsNull, Lit, MapLiteral, Prop, Un, Var

    leaves = st.one_of(
        st.builds(Lit, SCALARS),
        st.builds(Prop, st.sampled_from(["t", "r", "x"]), st.sampled_from(["a", "s", "m", "zz"])),
        st.builds(Var, st.sampled_from(["t", "r", "x"])),
    )
    ops = ["AND", "OR", "=", "!=", ">", "<", ">=", "<=", "+", "-", "*", "/", "%"]

    def grow(sub):
        return st.one_of(
            st.builds(Bin, st.sampled_from(ops), sub, sub),
            st.builds(Un, st.sampled_from(["NOT", "-"]), sub),
            st.builds(IsNull, sub, st.booleans()),
            st.builds(lambda name, args: Func(name, tuple(args)),
                      st.sampled_from(["upper", "toInteger", "toString", "abs", "size", "foo",
                                       "max"]),
                      st.lists(sub, max_size=2)),
            st.builds(lambda value: MapLiteral((("k", value),)), sub),
        )

    return st.recursive(leaves, grow, max_leaves=8)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(expr=_cypher_trees(), row=st.integers(0, len(GENERATOR.ROWS) - 1))
def test_cypher_fuzz_raises_only_repro_errors(expr, row):
    from repro.graphdb.executor import _compile

    _outcome(lambda: _compile(expr)(GENERATOR.build_row(GENERATOR.ROWS[row]), None))


# ----------------------------------------------------------------------
# Overflow: an integer no float holds fails through the funnel
# ----------------------------------------------------------------------
OVERFLOW_RECORDS = [{"k": 0, "v": 1.5}, {"k": 1, "v": HUGE}]


def _sql_engine(dialect, exec_engine):
    from repro.sqlengine import SQLDatabase
    from repro.sqlpp import AsterixDB

    if dialect == "sql":
        db = SQLDatabase(exec_engine=exec_engine)
        db.create_table("N.d", primary_key="k")
        db.insert("N.d", OVERFLOW_RECORDS)
    else:
        db = AsterixDB(query_prep_overhead=0.0, exec_engine=exec_engine)
        db.create_dataverse("N")
        db.create_dataset("N", "d", primary_key="k")
        db.load("N.d", OVERFLOW_RECORDS)
    return db


@pytest.mark.parametrize("query, message", [
    (f"SELECT {HUGE} / 3 AS r FROM N.d t",
     "cannot apply / to int and int: integer division result too large for a float"),
    ("SELECT t.v * 1.5 AS r FROM N.d t",
     "cannot apply * to int and float: int too large to convert to float"),
    ("SELECT SUM(t.v) AS r FROM N.d t", "cannot apply SUM to int: int too large to convert to float"),
    ("SELECT t.k AS g, SUM(t.v + 0.5) AS r FROM N.d t GROUP BY t.k",
     "cannot apply + to int and float: int too large to convert to float"),
    (f"SELECT AVG(t.k + {HUGE}) AS r FROM N.d t",
     "cannot apply AVG to int: integer division result too large for a float"),
], ids=["divide", "multiply", "sum", "grouped-sum", "avg"])
@pytest.mark.parametrize("exec_engine", ["row", "vector"])
@pytest.mark.parametrize("dialect", ["sql", "sqlpp"])
def test_sql_overflow_is_one_execution_error_on_row_and_vector(dialect, exec_engine, query,
                                                              message):
    with pytest.raises(ExecutionError) as raised:
        _sql_engine(dialect, exec_engine).execute(query)
    assert str(raised.value) == message


def test_mongodb_and_cypher_overflow_is_an_execution_error():
    from repro.docstore import MongoDatabase
    from repro.graphdb import Neo4jDatabase

    mongo = MongoDatabase(query_prep_overhead=0.0)
    mongo.create_collection("d").insert_many(OVERFLOW_RECORDS)
    neo4j = Neo4jDatabase(query_prep_overhead=0.0)
    neo4j.load("d", OVERFLOW_RECORDS)
    runs = {
        "cannot apply $sum to int": lambda: mongo.aggregate(
            "d", [{"$group": {"_id": {}, "r": {"$sum": "$v"}}}]),
        "cannot apply $divide to int and int": lambda: mongo.aggregate(
            "d", [{"$project": {"r": {"$divide": [HUGE, 3]}}}]),
        "cannot apply sum to int": lambda: neo4j.execute("MATCH (t:d) RETURN sum(t.v) AS r"),
        "cannot apply * to int and float": lambda: neo4j.execute(
            "MATCH (t:d) RETURN t.v * 1.5 AS r"),
        "cannot apply $avg to int": lambda: mongo.aggregate(
            "d", [{"$group": {"_id": {}, "r": {"$avg": {"$add": ["$k", HUGE]}}}}]),
        "cannot apply avg to int": lambda: neo4j.execute(
            f"MATCH (t:d) RETURN avg(t.k + {HUGE}) AS r"),
    }
    for prefix, run in runs.items():
        with pytest.raises(ExecutionError, match=re.escape(prefix) + ": .* too large"):
            run()


def test_sharded_avg_and_std_overflow_through_the_funnel():
    from repro.cluster import GreenplumCluster, MongoDBCluster
    from repro.resilience import FaultInjector

    knobs = {"fault_injector": FaultInjector(), "query_prep_overhead": 0.0}
    greenplum = GreenplumCluster(4, **knobs)
    greenplum.create_table("N.d", primary_key="k")
    greenplum.insert("N.d", OVERFLOW_RECORDS, shard_key="k")
    mongo = MongoDBCluster(4, **knobs)
    mongo.create_collection("d")
    mongo.insert_many("d", OVERFLOW_RECORDS, shard_key="k")
    runs = [
        ("cannot apply AVG to int", lambda: greenplum.execute(
            f"SELECT AVG(t.k + {HUGE}) AS r FROM N.d t")),
        ("cannot apply STD to int", lambda: greenplum.execute(
            f"SELECT STDDEV(t.k * {HUGE}) AS r FROM N.d t")),
        ("cannot apply AVG to int", lambda: mongo.aggregate(
            "d", [{"$group": {"_id": {}, "r": {"$avg": {"$add": ["$k", HUGE]}}}}])),
    ]
    for prefix, run in runs:
        with pytest.raises(ExecutionError, match=re.escape(prefix) + ": .* too large"):
            run()


def test_merging_sum_states_overflow_through_the_funnel():
    """A spilled group's SUM state meets a later spill run's."""
    make = scalar.accumulator("SUM", scalar.DIALECTS["sql"])
    prior, later = make(), make()
    prior.add(1.5)
    later.add(HUGE)
    with pytest.raises(ExecutionError, match="^cannot apply SUM to float and int: int too large"):
        prior.merge(later)


# ----------------------------------------------------------------------
# The docs table is the dialect table
# ----------------------------------------------------------------------
DOC = Path(__file__).resolve().parent.parent / "docs" / "execution.md"
#: Docs row label -> Dialect field (``error class`` is the funnel's).
DOC_ROWS = {
    "absent field": "absent_field",
    "cross-type comparison": "comparison",
    "logic": "logic",
    "arithmetic type error": "arithmetic_type_error",
    "`/ 0`": "divide_by_zero",
    "which values aggregates take": "aggregates_take",
    "empty SUM": "empty_sum",
    "MIN/MAX order": "min_max_order",
    "error class": None,
}


def test_the_docs_table_is_the_dialect_table():
    text = DOC.read_text().split("## Scalar semantics", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in text.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    assert header == ["", "SQL", "SQL++", "MongoDB", "Cypher"]
    dialects = ["sql", "sqlpp", "mongo", "cypher"]
    rows = {}
    for line in lines[2:]:
        label, *cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[label] = cells
    assert list(rows) == list(DOC_ROWS)
    for label, field in DOC_ROWS.items():
        for dialect, cell in zip(dialects, rows[label]):
            want = ExecutionError.__name__ if field is None else getattr(
                scalar.DIALECTS[dialect], field)
            assert re.sub(r"`", "", cell).split(" [")[0] == want, (label, dialect, cell)


def test_no_accumulator_class_outside_the_scalar_kernel():
    """A class with both ``add`` and ``result`` is an accumulator."""
    root = Path(scalar.__file__).resolve().parent.parent
    found = []
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                if {"add", "result"} <= methods:
                    found.append(f"{path.relative_to(root)}:{node.name}")
    assert found and all(name.startswith("exec/scalar.py:") for name in found), found
