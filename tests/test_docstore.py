"""Document store tests: expressions, pipeline stages, optimizer behaviour."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore import MongoDatabase
from repro.docstore.exprs import compile_expr, get_path
from repro.errors import CatalogError, ExecutionError, UnsupportedOperationError
from repro.storage.keys import SENTINEL_MISSING


@pytest.fixture()
def db():
    database = MongoDatabase(query_prep_overhead=0.0)
    database.create_collection("users")
    docs = []
    for i in range(300):
        doc = {"n": i, "mod": i % 5, "name": f"user{i}", "lang": ["en", "fr"][i % 2]}
        if i % 10 != 0:
            doc["score"] = i % 7
        docs.append(doc)
    database.collection("users").insert_many(docs)
    database.collection("users").create_index("n")
    database.collection("users").create_index("mod")
    return database


def evaluate(expr, doc, variables=None):
    return compile_expr(expr)(doc, variables or {})


class TestExprEvaluator:
    def setup_method(self):
        self.doc = {"a": 3, "b": "x", "nested": {"c": 7}, "n": None}

    def test_field_paths(self):
        assert evaluate("$a", self.doc) == 3
        assert evaluate("$nested.c", self.doc) == 7
        assert evaluate("$missing", self.doc) is SENTINEL_MISSING

    def test_get_path_on_non_dict(self):
        assert get_path({"a": 5}, "a.b") is SENTINEL_MISSING

    def test_variables(self):
        assert evaluate("$$v", self.doc, {"v": 42}) == 42
        with pytest.raises(ExecutionError):
            evaluate("$$undefined", self.doc)

    def test_comparisons(self):
        assert evaluate({"$eq": ["$a", 3]}, self.doc) is True
        assert evaluate({"$gt": ["$a", 2]}, self.doc) is True
        assert evaluate({"$lte": ["$a", 2]}, self.doc) is False

    def test_missing_sorts_below_null(self):
        """The expression-13 trick: missing < null in comparison order."""
        assert evaluate({"$lt": ["$missing", None]}, self.doc) is True
        assert evaluate({"$lt": ["$n", None]}, self.doc) is False

    def test_logical_operators(self):
        expr = {"$and": [{"$eq": ["$a", 3]}, {"$eq": ["$b", "x"]}]}
        assert evaluate(expr, self.doc) is True
        assert evaluate({"$not": [{"$eq": ["$a", 3]}]}, self.doc) is False
        assert evaluate({"$or": [{"$eq": ["$a", 9]}, {"$eq": ["$b", "x"]}]}, self.doc)

    def test_arithmetic(self):
        assert evaluate({"$add": ["$a", 2]}, self.doc) == 5
        assert evaluate({"$multiply": ["$a", "$a"]}, self.doc) == 9
        assert evaluate({"$mod": ["$a", 2]}, self.doc) == 1
        assert evaluate({"$add": ["$missing", 1]}, self.doc) is None

    def test_string_operators(self):
        assert evaluate({"$toUpper": "$b"}, self.doc) == "X"
        assert evaluate({"$concat": ["$b", "!"]}, self.doc) == "x!"

    def test_conversions(self):
        assert evaluate({"$toInt": "3.9"}, self.doc) == 3
        assert evaluate({"$toString": "$a"}, self.doc) == "3"

    def test_if_null(self):
        assert evaluate({"$ifNull": ["$missing", 9]}, self.doc) == 9
        assert evaluate({"$ifNull": ["$a", 9]}, self.doc) == 3

    def test_unknown_operator(self):
        with pytest.raises(ExecutionError):
            evaluate({"$frobnicate": 1}, self.doc)


class TestPipelineStages:
    def test_match_and_limit(self, db):
        result = db.aggregate("users", [
            {"$match": {}},
            {"$match": {"$expr": {"$eq": ["$mod", 2]}}},
            {"$limit": 3},
        ])
        assert len(result) == 3
        assert all(doc["mod"] == 2 for doc in result.records)

    def test_match_shorthand_equality(self, db):
        result = db.aggregate("users", [{"$match": {"lang": "en"}}, {"$count": "c"}])
        assert result.records == [{"c": 150}]

    def test_match_operator_form(self, db):
        result = db.aggregate("users", [{"$match": {"n": {"$gte": 295}}}, {"$count": "c"}])
        assert result.records == [{"c": 5}]

    def test_query_language_operands_are_literals(self, db):
        """``{"s": {"$eq": "$a"}}`` means what ``{"s": "$a"}`` means: the string."""
        db.create_collection("dollars").insert_many(
            [{"s": "$a", "a": "x"}, {"s": "x", "a": "x"}, {"s": "$b", "a": "$b"}]
        )

        def ids(spec):
            return [doc["_id"] for doc in db.aggregate("dollars", [{"$match": spec}]).records]

        assert ids({"s": "$a"}) == ids({"s": {"$eq": "$a"}}) == [0]
        assert ids({"s": {"$in": ["$a", "$b"]}}) == [0, 2]
        assert ids({"s": {"$ne": "$a"}}) == [1, 2]
        # The aggregation form is where "$a" is a field path.
        assert ids({"$expr": {"$eq": ["$s", "$a"]}}) == [1, 2]

    def test_project_inclusion_keeps_id(self, db):
        result = db.aggregate("users", [{"$project": {"n": 1}}, {"$limit": 1}])
        assert set(result.records[0]) == {"_id", "n"}

    def test_project_id_exclusion(self, db):
        result = db.aggregate("users", [
            {"$project": {"n": 1}},
            {"$project": {"_id": 0}},
            {"$limit": 1},
        ])
        assert set(result.records[0]) == {"n"}

    def test_project_computed(self, db):
        result = db.aggregate("users", [
            {"$project": {"up": {"$toUpper": "$name"}, "_id": 0}},
            {"$limit": 1},
        ])
        assert result.records[0]["up"] == "USER0"

    def test_add_fields(self, db):
        result = db.aggregate("users", [
            {"$addFields": {"double": {"$multiply": ["$n", 2]}}},
            {"$limit": 1},
        ])
        assert result.records[0]["double"] == 0

    def test_group_scalar(self, db):
        result = db.aggregate("users", [
            {"$group": {"_id": {}, "max": {"$max": "$n"}, "total": {"$sum": "$n"}}},
            {"$project": {"_id": 0}},
        ])
        assert result.records == [{"max": 299, "total": sum(range(300))}]

    def test_group_by_key(self, db):
        result = db.aggregate("users", [
            {"$group": {"_id": {"mod": "$mod"}, "c": {"$sum": 1}}},
        ])
        assert len(result) == 5
        assert all(doc["c"] == 60 for doc in result.records)

    def test_group_avg_and_std_skip_non_numeric(self, db):
        result = db.aggregate("users", [
            {"$group": {"_id": {}, "avg": {"$avg": "$score"}, "std": {"$stdDevPop": "$score"}}},
        ])
        record = result.records[0]
        assert record["avg"] is not None and record["std"] is not None

    def test_sort_skip_limit(self, db):
        result = db.aggregate("users", [
            {"$sort": {"n": -1}},
            {"$skip": 2},
            {"$limit": 3},
            {"$project": {"n": 1, "_id": 0}},
        ])
        assert [doc["n"] for doc in result.records] == [297, 296, 295]

    def test_count_stage(self, db):
        result = db.aggregate("users", [{"$match": {}}, {"$count": "total"}])
        assert result.records == [{"total": 300}]

    def test_unwind(self, db):
        db.create_collection("orders")
        db.collection("orders").insert_many([
            {"id": 1, "items": ["a", "b"]},
            {"id": 2, "items": []},
            {"id": 3},
        ])
        flat = db.aggregate("orders", [{"$unwind": {"path": "$items"}}])
        assert len(flat) == 2
        preserved = db.aggregate("orders", [
            {"$unwind": {"path": "$items", "preserveNullAndEmptyArrays": True}},
        ])
        assert len(preserved) == 4

    def test_out_writes_collection(self, db):
        db.aggregate("users", [
            {"$match": {"$expr": {"$eq": ["$mod", 0]}}},
            {"$out": "mod0"},
        ])
        assert db.estimated_document_count("mod0") == 60

    def test_lookup_local_foreign(self, db):
        result = db.aggregate("users", [
            {"$match": {"n": {"$lte": 4}}},
            {"$lookup": {"from": "users", "localField": "n", "foreignField": "n", "as": "self"}},
        ])
        assert all(len(doc["self"]) == 1 for doc in result.records)

    def test_lookup_pipeline_inlj(self, db):
        result = db.aggregate("users", [
            {"$lookup": {
                "from": "users", "as": "other", "let": {"left": "$n"},
                "pipeline": [{"$match": {}}, {"$match": {"$expr": {"$eq": ["$n", "$$left"]}}}],
            }},
            {"$unwind": {"path": "$other"}},
            {"$count": "c"},
        ])
        assert result.records == [{"c": 300}]

    def test_invalid_stage_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.aggregate("users", [{"$teleport": 1}])

    def test_unknown_collection(self, db):
        with pytest.raises(CatalogError):
            db.aggregate("nope", [{"$match": {}}])


class TestPipelineOptimizer:
    def test_leading_empty_match_elided(self, db):
        result = db.aggregate("users", [{"$match": {}}, {"$count": "c"}])
        assert result.stats.full_scans == 1  # one scan, not two

    def test_equality_match_uses_index(self, db):
        result = db.aggregate("users", [
            {"$match": {}},
            {"$match": {"$expr": {"$eq": ["$n", 7]}}},
        ])
        assert len(result) == 1
        assert result.stats.full_scans == 0
        assert result.stats.index_entries >= 1

    def test_and_of_equalities_probes_index(self, db):
        result = db.aggregate("users", [
            {"$match": {}},
            {"$match": {"$expr": {"$and": [
                {"$eq": ["$mod", 2]},
                {"$eq": ["$lang", "en"]},
            ]}}},
            {"$count": "c"},
        ])
        assert result.stats.full_scans == 0
        assert result.records[0]["c"] == 30

    def test_sort_limit_uses_backward_index(self, db):
        result = db.aggregate("users", [
            {"$match": {}},
            {"$sort": {"n": -1}},
            {"$project": {"_id": 0}},
            {"$limit": 5},
        ])
        assert [doc["n"] for doc in result.records] == [299, 298, 297, 296, 295]
        assert result.stats.heap_fetches == 5

    @pytest.mark.parametrize("limit, returned", [(0, 0), (3, 3), (60, 60), (1000, 60)])
    def test_limit_over_an_index_probe_reads_exactly_what_it_returns(self, db, limit, returned):
        """``mod == 2`` has 60 entries; $limit n must not pull an n+1-th."""
        result = db.aggregate("users", [{"$match": {"mod": 2}}, {"$limit": limit}])
        assert len(result) == returned
        assert result.stats.index_entries == returned
        assert result.stats.heap_fetches == returned
        assert result.stats.full_scans == 0

    @pytest.mark.parametrize("limit, returned", [(0, 0), (3, 3), (300, 300), (1000, 300)])
    def test_limit_over_a_collection_scan_reads_exactly_what_it_returns(self, db, limit, returned):
        result = db.aggregate("users", [{"$match": {}}, {"$limit": limit}])
        assert len(result) == returned
        assert result.stats.heap_fetches == returned
        assert result.stats.index_entries == 0
        assert result.stats.full_scans == (1 if limit else 0)  # $limit 0 never opens the scan

    def test_limit_stops_a_residual_filter_after_the_nth_match(self, db):
        """n = 7 is the third document with n % 3 == 1; nothing past it is read."""
        result = db.aggregate("users", [
            {"$match": {"$expr": {"$eq": [{"$mod": ["$n", 3]}, 1]}}},
            {"$limit": 3},
        ])
        assert [doc["n"] for doc in result.records] == [1, 4, 7]
        assert result.stats.heap_fetches == 8

    def test_count_cannot_use_metadata(self, db):
        """The paper's expression-1 caveat: pipelines scan for counts."""
        result = db.aggregate("users", [{"$match": {}}, {"$count": "c"}])
        assert result.stats.full_scans == 1
        # ...even though the metadata count is available outside pipelines:
        assert db.estimated_document_count("users") == 300

    def test_missing_values_not_indexed(self, db):
        db.collection("users").create_index("score")
        result = db.aggregate("users", [
            {"$match": {}},
            {"$match": {"$expr": {"$lt": ["$score", None]}}},
            {"$count": "c"},
        ])
        assert result.records == [{"c": 30}]
        assert result.stats.full_scans == 1


class TestShardedLimitation:
    def test_sharded_lookup_raises(self):
        from repro.cluster import MongoDBCluster

        cluster = MongoDBCluster(2, query_prep_overhead=0.0)
        cluster.create_collection("users")
        cluster.insert_many("users", [{"n": i} for i in range(10)])
        with pytest.raises(UnsupportedOperationError):
            cluster.aggregate("users", [
                {"$lookup": {"from": "users", "as": "x", "let": {"l": "$n"},
                             "pipeline": [{"$match": {}}]}},
            ])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=60), st.integers(0, 50))
def test_property_match_count_agrees_with_python(values, pivot):
    db = MongoDatabase(query_prep_overhead=0.0)
    db.create_collection("c")
    db.collection("c").insert_many([{"v": value} for value in values])
    result = db.aggregate("c", [
        {"$match": {"$expr": {"$gte": ["$v", pivot]}}},
        {"$count": "n"},
    ])
    expected = sum(1 for value in values if value >= pivot)
    got = result.records[0]["n"] if result.records else 0
    assert got == expected
