"""The document and graph engines compile a stage / clause once.

Four things are pinned here:

* **semantics** — ``tests/golden/engine_exprs.json`` was captured from the
  tree-walking interpreters at the parent of PR 17 (≥ 500 cases per
  language: value, or error class and message); the compiled closures
  replay it with zero mismatches.  The only expectations that differ from
  the interpreter's are the cases carrying an ``edited`` note: the
  query-language ``$match`` operands that start with ``$`` and are now
  literals (``EDITED_MATCH_SPECS`` below lists every one), and the cases
  that failed with a bare Python exception and now fail with an
  ``ExecutionError`` (``tests/test_scalar_semantics.py`` pins those);
* **once** — a pipeline / clause chain calls ``compile_expr`` /
  ``_compile`` the same number of times over 10 rows and over 1,000, and
  no row consults ``typing.Mapping``;
* **one arithmetic** — ``mean()`` / ``std()`` are bit-equal on all four
  backends (Neo4j kept a float sum and Welford's recurrence before);
* **column at a time** — a labeled MATCH feeding an aggregate (Table III
  E4, E8) compiles the same number of times over 10 and 1,000 nodes,
  builds at most one ``NodeHandle`` per group, still raises only where an
  expression is evaluated, and charges memory per group, not per row.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

from repro.docstore import MongoDatabase, exprs, pipeline
from repro.errors import ExecutionError
from repro.graphdb import Neo4jDatabase, executor
from repro.wisconsin import load_neo4j, wisconsin_records

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Every corpus case whose expectation PR 17 edited, as (spec, document index).
EDITED_MATCH_SPECS = [
    ({"a": {"$gt": "$nested.c"}}, 3),
    ({"arr": {"$lte": -4}, "t": {"$gte": "$nested.c"}}, 6),
    ({"n": {"$lte": "$zz"}}, 2),
    ({"b": {"$in": ["$s", 1, "$zz"]}}, 6),
    ({"zz": {"$ne": "$zz"}}, 5),
    ({"zz": {"$eq": "$$v"}}, 0),
    ({"nested.c": {"$gte": "$zz"}, "$expr": "$s"}, 0),
]


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_engine_exprs", os.path.join(GOLDEN_DIR, "generate_engine_exprs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def corpus():
    with open(os.path.join(GOLDEN_DIR, "engine_exprs.json"), encoding="utf-8") as handle:
        return json.load(handle)


class TestGoldenCorpus:
    @pytest.mark.parametrize("language", ["mongo", "cypher"])
    def test_compiled_closures_replay_the_interpreters(self, corpus, language):
        generator = _load_generator()
        cases = corpus[language]
        assert len(cases) >= 500
        mismatches = []
        for index, case in enumerate(cases):
            got = generator.run_case(corpus, language, case)
            # Compared as JSON text: 1 vs 1.0 vs true and key order all count.
            if json.dumps(got) != json.dumps(case["want"]):
                mismatches.append((index, case, got))
        assert not mismatches, mismatches[:5]

    def test_corpus_covers_values_and_errors(self, corpus):
        for language in ("mongo", "cypher"):
            errors = {
                tuple(case["want"]["error"]) for case in corpus[language] if "error" in case["want"]
            }
            assert len(errors) >= 10, language
            assert sum("value" in case["want"] for case in corpus[language]) >= 400

    def test_edited_expectations_are_exactly_the_listed_ones(self, corpus):
        edited = [case for language in ("mongo", "cypher") for case in corpus[language]
                  if "interpreter" in case.get("edited", {})]
        assert [(case["match"], case["doc"]) for case in edited] == EDITED_MATCH_SPECS
        for case in edited:
            assert case["edited"]["interpreter"] != case["want"]

    def test_generator_reproduces_the_committed_cases(self, corpus):
        """Same seed, same cases — and, from today's engines, the same answers."""
        fresh = _load_generator().generate()
        for language in ("mongo", "cypher"):
            committed = [{k: v for k, v in case.items() if k != "edited"}
                         for case in corpus[language]]
            assert fresh[language] == committed


# ----------------------------------------------------------------------
# "Once": compile calls do not grow with the input
# ----------------------------------------------------------------------
PIPELINE = [
    {"$match": {"$expr": {"$and": [{"$gte": ["$n", 0]}, {"$ne": ["$s", "zz"]}]}}},
    {"$match": {"mod": {"$in": [0, 1, 2, 3]}, "nested.k": {"$gte": 0}}},
    {"$addFields": {"double": {"$multiply": ["$n", 2]}, "deep": "$nested.k"}},
    {"$project": {"n": 1, "mod": 1, "double": 1, "tag": {"$toUpper": "$s"}}},
    {"$lookup": {"from": "other", "as": "j", "let": {"m": "$mod"},
                 "pipeline": [{"$match": {"$expr": {"$eq": ["$mod", "$$m"]}}},
                              {"$match": {"n": {"$lt": 3}}}]}},
    {"$group": {"_id": {"mod": "$mod"}, "total": {"$sum": "$double"}, "top": {"$max": "$n"}}},
    {"$sort": {"_id.mod": 1}},
]
CYPHER = (
    "MATCH(t: rows) WITH t WHERE t.n >= 0 AND t.s <> 'zz' "
    "WITH t{'n': t.n, 'mod': t.mod, 'tag': upper(t.s)} "
    "WITH t.mod AS mod, sum(t.n) AS total, max(t.n) AS top, count(*) AS c "
    "WHERE total >= 0 RETURN mod, total + c AS sized, top ORDER BY mod DESC"
)


def _rows(count: int) -> list[dict]:
    return [{"n": i, "mod": i % 4, "s": f"s{i % 3}", "nested": {"k": i % 2}} for i in range(count)]


def _mongo(count: int) -> MongoDatabase:
    db = MongoDatabase(query_prep_overhead=0.0)
    db.create_collection("rows").insert_many(_rows(count))
    db.create_collection("other").insert_many(_rows(8))
    return db


def _neo4j(count: int) -> Neo4jDatabase:
    db = Neo4jDatabase(query_prep_overhead=0.0)
    db.load("rows", [{k: v for k, v in row.items() if k != "nested"} for row in _rows(count)])
    return db


def _counting(monkeypatch, modules, name: str) -> list[int]:
    """Count calls of *name*, patched in every module that binds it."""
    calls = [0]
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


class TestCompiledOnce:
    def test_pipeline_compiles_the_same_number_of_times_for_any_row_count(self, monkeypatch):
        calls = _counting(monkeypatch, (exprs, pipeline), "compile_expr")
        counts, answers = [], []
        for size in (10, 1000):
            calls[0] = 0
            answers.append(_mongo(size).aggregate("rows", PIPELINE).records)
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0
        assert [group["_id"] for group in answers[1]] == [{"mod": m} for m in range(4)]
        assert answers[1][1]["top"] == 997

    def test_clause_chain_compiles_the_same_number_of_times_for_any_row_count(self, monkeypatch):
        calls = _counting(monkeypatch, (executor,), "_compile")
        counts, answers = [], []
        for size in (10, 1000):
            calls[0] = 0
            answers.append(_neo4j(size).execute(CYPHER).records)
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0
        assert answers[1][0] == {"mod": 3, "sized": sum(range(3, 1000, 4)) + 250, "top": 999}

    def test_no_row_consults_typing_mapping(self):
        """``isinstance(x, typing.Mapping)`` runs Python code in typing.py per call."""
        db = _mongo(1000)
        typing_calls = [0]

        def profiler(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.endswith("typing.py"):
                typing_calls[0] += 1

        sys.setprofile(profiler)
        try:
            db.aggregate("rows", PIPELINE)
        finally:
            sys.setprofile(None)
        assert typing_calls[0] == 0

    def test_an_unknown_operator_only_raises_where_it_is_evaluated(self):
        db = _mongo(10)
        untaken = {"$cond": [{"$gte": ["$n", 0]}, "$n", {"$bogus": ["$n"]}]}
        assert len(db.aggregate("rows", [{"$project": {"v": untaken}}]).records) == 10
        empty = [{"$match": {"n": -1}}, {"$addFields": {"v": {"$bogus": 1}}},
                 {"$group": {"_id": None, "x": {"$median": "$n"}}}]
        assert db.aggregate("rows", empty).records == []
        graph = _neo4j(10)
        assert graph.execute("MATCH(t: rows) WHERE t.n < 0 RETURN foo(t.n) AS v").records == []
        assert graph.execute("MATCH(t: rows) WHERE t.n < 0 RETURN q AS v").records == []


# ----------------------------------------------------------------------
# The graph engine's label scan → aggregate runs column at a time
# ----------------------------------------------------------------------
E4 = ("MATCH(t: data)\nWITH {'oddOnePercent': t.oddOnePercent, "
      "'count_oddOnePercent': count(t.oddOnePercent)} AS t\nRETURN t")
E8 = "MATCH(t: data)\nWITH {'twenty': t.twenty, 'max_four': max(t.four)} AS t\nRETURN t"
#: The accounted peak of ``GROUPED_COUNT`` before aggregates charged per
#: group: 346 B for every one of the 10,000 buffered input rows.
ROW_BUFFER_PEAK_BYTES = 3_460_000
GROUPED_COUNT = "MATCH (t:rows) RETURN t.mod AS mod, {}"


def _wisconsin_graph(count: int) -> Neo4jDatabase:
    db = Neo4jDatabase(query_prep_overhead=0.0)
    load_neo4j(db, "data", wisconsin_records(count))
    return db


def _fused(db: Neo4jDatabase, query: str) -> bool:
    profile = db.execute(query, analyze=True).op_profile
    return any("+Aggregate[cols:" in node.name for node in profile.walk())


class TestGraphColumnLoop:
    def test_e8_compiles_the_same_number_of_times_for_any_node_count(self, monkeypatch):
        calls = _counting(monkeypatch, (executor,), "_compile")
        counts, answers = [], []
        for size in (10, 1000):
            db = _wisconsin_graph(size)
            calls[0] = 0
            answers.append(db.execute(E8).records)
            counts.append(calls[0])
        assert _fused(db, E8)
        assert counts[0] == counts[1] > 0
        assert len(answers[1]) == 20

    @pytest.mark.parametrize("query, groups", [(E8, 20), (E4, 100)], ids=["E8", "E4"])
    def test_at_most_one_node_handle_per_group(self, monkeypatch, query, groups):
        db = _wisconsin_graph(1000)
        made = [0]
        original = executor.NodeHandle.__init__

        def counted(handle, *args):
            made[0] += 1
            original(handle, *args)

        monkeypatch.setattr(executor.NodeHandle, "__init__", counted)
        assert len(db.execute(query).records) == groups
        assert 0 < made[0] <= groups

    def test_errors_only_raise_where_they_are_evaluated(self):
        graph = _neo4j(10)
        empty = [
            "MATCH(t: rows) WHERE t.n < 0 RETURN foo(t.n) AS v",
            "MATCH(t: rows) WHERE t.n < 0 RETURN t.mod AS m, max(foo(t.n)) AS v",
            "MATCH(t: rows) WHERE t.n < 0 RETURN foo(t.mod) AS m, count(*) AS c",
        ]
        for query in empty:
            assert graph.execute(query).records == []
        assert _fused(graph, empty[1]) and _fused(graph, empty[2])
        with pytest.raises(ExecutionError, match="unknown function 'foo'"):
            graph.execute("MATCH(t: rows) RETURN t.mod AS m, max(foo(t.n)) AS v")

    @pytest.mark.parametrize("count", ["count(*) AS c", "count(t) AS c"], ids=["fused", "rows"])
    def test_aggregate_charges_memory_per_group_not_per_row(self, count):
        db = Neo4jDatabase(query_prep_overhead=0.0)
        db.load("rows", [{"n": i, "mod": i % 4} for i in range(10_000)])
        query = GROUPED_COUNT.format(count)
        result = db.execute(query)
        assert [record["c"] for record in result.records] == [2500] * 4
        assert 0 < result.stats.peak_mem_bytes < ROW_BUFFER_PEAK_BYTES / 50
        assert _fused(db, query) == (count == "count(*) AS c")


# ----------------------------------------------------------------------
# One arithmetic for mean() / std() on every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("column", ["unique1", "onePercent", "tenPercent"])
def test_mean_and_std_are_bit_equal_on_all_four_backends(all_frames, column):
    means = {name: frame[column].mean() for name, frame in all_frames.items()}
    stds = {name: frame[column].std() for name, frame in all_frames.items()}
    assert len({repr(value) for value in means.values()}) == 1, means
    assert len({repr(value) for value in stds.values()}) == 1, stds
