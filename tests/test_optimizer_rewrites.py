"""Unit tests for the optimizer's logical rewrite rules (subquery flattening)."""

from __future__ import annotations

import pytest

from repro.sqlengine.logical import (
    ColumnRestrict,
    DerivedBind,
    Filter,
    Limit,
    Project,
    Rebind,
    Scan,
    Sort,
)
from repro.sqlengine.optimizer import (
    Optimizer,
    OptimizerFeatures,
    bindings_of,
    unwrap_rebinds,
)
from repro.sqlengine.parser import parse
from repro.sqlengine.planner import plan_query
from repro.storage.catalog import Catalog


@pytest.fixture()
def optimizer():
    catalog = Catalog()
    catalog.create_table("data", primary_key="id")
    catalog.create_index("data_a", "data", "a")
    return Optimizer(catalog, OptimizerFeatures.postgres())


def rewrite(optimizer, sql, dialect="sqlpp"):
    return optimizer.rewrite(plan_query(parse(sql, dialect)))


class TestFlattening:
    def test_identity_select_value_flattens(self, optimizer):
        plan = rewrite(
            optimizer, "SELECT VALUE t FROM (SELECT VALUE t FROM data t) t LIMIT 1"
        )
        assert "DerivedBind" not in plan.tree_string()

    def test_identity_star_flattens(self, optimizer):
        plan = rewrite(optimizer, "SELECT * FROM (SELECT * FROM data) t LIMIT 1", "sql")
        text = plan.tree_string()
        assert "DerivedBind" not in text
        assert "Scan data" in text

    def test_triple_nesting_flattens(self, optimizer):
        plan = rewrite(
            optimizer,
            "SELECT t.a FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM data) t) t) t",
            "sql",
        )
        assert "DerivedBind" not in plan.tree_string()

    def test_column_projection_becomes_restrict(self, optimizer):
        plan = rewrite(optimizer, "SELECT * FROM (SELECT a FROM data t) t LIMIT 1", "sql")
        text = plan.tree_string()
        assert "ColumnRestrict" in text
        assert "DerivedBind" not in text

    @pytest.mark.parametrize("sql,dialect", [
        ("SELECT MAX(a) FROM (SELECT a FROM data t) t", "sql"),
        ("SELECT MAX(unique1) FROM (SELECT t.unique1 FROM (SELECT VALUE t FROM data t) t) t",
         "sqlpp"),
        ("SELECT t.a, COUNT(*) AS n FROM (SELECT t.a, t.b FROM data t) t GROUP BY t.a", "sql"),
        ("SELECT SUM(a + b) FROM (SELECT a, b FROM data t) t", "sql"),
    ])
    def test_restrict_under_aggregate_of_its_columns_is_dropped(self, optimizer, sql, dialect):
        text = rewrite(optimizer, sql, dialect).tree_string()
        assert "Aggregate" in text
        assert "ColumnRestrict" not in text

    @pytest.mark.parametrize("sql,dialect", [
        ("SELECT MAX(b) FROM (SELECT a FROM data t) t", "sql"),  # b is cut away
        ("SELECT COUNT(t) FROM (SELECT t.a FROM data t) t", "sqlpp"),  # the whole record
        ("SELECT t.a, MAX(t.b) FROM (SELECT t.a FROM data t) t GROUP BY t.a", "sql"),
    ])
    def test_restrict_stays_when_the_aggregate_reads_past_it(self, optimizer, sql, dialect):
        assert "ColumnRestrict" in rewrite(optimizer, sql, dialect).tree_string()

    def test_aliased_projection_does_not_flatten(self, optimizer):
        # Renaming columns changes record shape; the derived table stays.
        plan = rewrite(
            optimizer, "SELECT * FROM (SELECT a AS b FROM data t) t LIMIT 1", "sql"
        )
        assert "DerivedBind" in plan.tree_string()

    def test_distinct_blocks_flattening(self, optimizer):
        plan = rewrite(
            optimizer, "SELECT * FROM (SELECT DISTINCT * FROM data t) t LIMIT 1", "sql"
        )
        assert "DerivedBind" in plan.tree_string()

    def test_filter_pushed_to_scan(self, optimizer):
        plan = rewrite(
            optimizer,
            "SELECT * FROM (SELECT * FROM (SELECT * FROM data) t WHERE t.a = 1) t",
            "sql",
        )
        # After pushdown, Filter sits directly above the Scan.
        text = plan.tree_string().splitlines()
        filter_idx = next(i for i, line in enumerate(text) if "Filter" in line)
        assert "Scan" in text[filter_idx + 1]

    def test_adjacent_filters_merge(self, optimizer):
        plan = rewrite(
            optimizer,
            "SELECT * FROM (SELECT * FROM (SELECT * FROM data) t WHERE t.a = 1) t "
            "WHERE t.id = 2",
            "sql",
        )
        assert plan.tree_string().count("Filter") == 1

    def test_limit_plants_topk_hint(self, optimizer):
        plan = rewrite(
            optimizer,
            "SELECT * FROM (SELECT * FROM data) t ORDER BY a DESC LIMIT 7",
            "sql",
        )
        assert "(top 7)" in plan.tree_string()

    def test_flattening_disabled_preserves_nesting(self):
        catalog = Catalog()
        catalog.create_table("data")
        raw = Optimizer(catalog, OptimizerFeatures.unoptimized())
        plan = rewrite(raw, "SELECT * FROM (SELECT * FROM data) t LIMIT 1", "sql")
        assert "DerivedBind" in plan.tree_string()


class TestPlanShapeHelpers:
    def test_bindings_of(self):
        scan = Scan("data", "x")
        assert bindings_of(scan) == {"x"}
        assert bindings_of(Rebind(scan, "x", "y")) == {"y"}
        assert bindings_of(Filter(scan, None)) == {"x"}  # type: ignore[arg-type]

    def test_unwrap_rebinds(self):
        scan = Scan("data", "a")
        wrapped = Rebind(Rebind(scan, "a", "b"), "b", "c")
        core, renames = unwrap_rebinds(wrapped)
        assert core is scan
        assert renames == [("b", "c"), ("a", "b")]
