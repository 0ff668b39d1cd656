"""Row-vs-vector execution parity.

The vectorized engine (``repro.exec``) must be observationally identical
to the row engine: same records, same null/MISSING semantics, same
errors.  This suite pins that equivalence three ways:

- all 13 Table III benchmark expressions over seeded Wisconsin data
  (``tenPercent`` absent in ~10% of records, so NULL/MISSING paths run),
  on both the SQL and SQL++ dialects;
- randomized ad-hoc queries (filters, projections, group-bys, sorts,
  DISTINCT) generated from a fixed seed;
- the engine label surfaced through ``QueryStats`` / ``explain``.
"""

from __future__ import annotations

import random

import pytest

from repro import AsterixDBConnector, PolyFrame, PostgresConnector
from repro.bench.expressions import EXPRESSIONS, DataFrameAPI, benchmark_params
from repro.errors import ExecutionError
from repro.sqlengine import SQLDatabase
from repro.sqlpp import AsterixDB
from repro.wisconsin import WisconsinGenerator, loaders

NAMESPACE = "Bench"
DATASET = "data"
DATASET2 = "data2"
NUM_RECORDS = 120


def _records():
    # missing_attribute='tenPercent' by default: ~10% of records omit it,
    # exercising NULL (sql) and MISSING (sqlpp) paths in every run.
    return WisconsinGenerator(NUM_RECORDS, seed=20210).records()


def _build(dialect: str, exec_engine: str):
    """A loaded engine pair (connector, df, df2) with no secondary indexes.

    ``indexes=False`` keeps the planner on sequential scans, which is the
    plan shape the vector engine accepts — otherwise most expressions
    would fall back to the row engine and the parity check would be
    vacuous.
    """
    records = _records()
    if dialect == "sql":
        db = SQLDatabase(name="postgres", exec_engine=exec_engine)
        loaders.load_postgres(db, NAMESPACE, DATASET, records, indexes=False)
        loaders.load_postgres(db, NAMESPACE, DATASET2, records, indexes=False)
        connector = PostgresConnector(db)
    else:
        db = AsterixDB(exec_engine=exec_engine)
        loaders.load_asterixdb(db, NAMESPACE, DATASET, records, indexes=False)
        loaders.load_asterixdb(db, NAMESPACE, DATASET2, records, indexes=False)
        connector = AsterixDBConnector(db)
    df = PolyFrame(NAMESPACE, DATASET, connector)
    df2 = PolyFrame(NAMESPACE, DATASET2, connector)
    return db, connector, df, df2


@pytest.fixture(scope="module")
def engine_pairs():
    """(row, vector) system pairs per dialect, loaded once for the module."""
    return {
        dialect: (_build(dialect, "row"), _build(dialect, "vector"))
        for dialect in ("sql", "sqlpp")
    }


def _normalize(value):
    """Comparable form: frames become record lists, scalars stay scalars."""
    if hasattr(value, "to_records"):
        return value.to_records()
    return value


@pytest.mark.parametrize("dialect", ["sql", "sqlpp"])
@pytest.mark.parametrize("expr", EXPRESSIONS, ids=[f"e{e.id}" for e in EXPRESSIONS])
def test_benchmark_expression_parity(engine_pairs, dialect, expr):
    (_, _, row_df, row_df2), (_, _, vec_df, vec_df2) = engine_pairs[dialect]
    params = benchmark_params(seed=7)
    api = DataFrameAPI()
    row_answer = _normalize(expr.run(row_df, row_df2, params, api))
    vec_answer = _normalize(expr.run(vec_df, vec_df2, params, api))
    assert row_answer == vec_answer


@pytest.mark.parametrize("dialect", ["sql", "sqlpp"])
def test_vector_engine_actually_engaged(engine_pairs, dialect):
    """The parity above is only meaningful if the vector path ran."""
    _, connector, _, _ = engine_pairs[dialect][1]
    engines = {record.exec_engine for record in connector.send_log}
    assert "vector" in engines
    assert engines <= {"row", "vector"}


RANDOM_COLUMNS = ("unique1", "two", "four", "ten", "twenty", "onePercent", "tenPercent")


def _random_queries(rng: random.Random, table: str) -> list[str]:
    """Ad-hoc SELECTs mixing filters, sorts, group-bys, and DISTINCT."""
    queries = []
    for _ in range(12):
        column = rng.choice(RANDOM_COLUMNS)
        op = rng.choice((">", "<", ">=", "<=", "=", "<>"))
        value = rng.randint(0, 99)
        shape = rng.randrange(4)
        if shape == 0:
            queries.append(
                f"SELECT t.unique2, t.{column} FROM {table} t "
                f"WHERE t.{column} {op} {value}"
            )
        elif shape == 1:
            queries.append(
                f"SELECT t.unique2 FROM {table} t WHERE t.{column} {op} {value} "
                f"ORDER BY t.unique2 DESC LIMIT {rng.randint(1, 20)}"
            )
        elif shape == 2:
            other = rng.choice(RANDOM_COLUMNS)
            queries.append(
                f"SELECT t.{column} AS k, COUNT(*) AS n, MIN(t.{other}) AS lo "
                f"FROM {table} t GROUP BY t.{column}"
            )
        else:
            queries.append(
                f"SELECT DISTINCT t.{column} FROM {table} t "
                f"WHERE t.{column} {op} {value}"
            )
    queries.append(f"SELECT COUNT(*) AS n FROM {table} t WHERE t.tenPercent IS NULL")
    queries.append(f"SELECT t.tenPercent + t.two AS s FROM {table} t")
    return queries


@pytest.mark.parametrize("dialect", ["sql", "sqlpp"])
def test_randomized_query_parity(engine_pairs, dialect):
    (row_db, _, _, _), (vec_db, _, _, _) = engine_pairs[dialect]
    rng = random.Random(1729)
    for query in _random_queries(rng, f"{NAMESPACE}.{DATASET}"):
        row_result = row_db.execute(query)
        vec_result = vec_db.execute(query)
        assert row_result.records == vec_result.records, query


@pytest.mark.parametrize("dialect", ["sql", "sqlpp"])
def test_error_parity_on_mixed_type_comparison(engine_pairs, dialect):
    """Both engines raise the row engine's exact comparison error."""
    (row_db, _, _, _), (vec_db, _, _, _) = engine_pairs[dialect]
    query = f"SELECT t.unique2 FROM {NAMESPACE}.{DATASET} t WHERE t.stringu1 > 5"
    with pytest.raises(ExecutionError) as row_err:
        row_db.execute(query)
    with pytest.raises(ExecutionError) as vec_err:
        vec_db.execute(query)
    assert str(row_err.value) == str(vec_err.value)


@pytest.mark.parametrize("dialect", ["sql", "sqlpp"])
def test_explain_reports_engine(engine_pairs, dialect):
    (row_db, _, _, _), (vec_db, _, _, _) = engine_pairs[dialect]
    query = f"SELECT t.ten FROM {NAMESPACE}.{DATASET} t WHERE t.ten = 3"
    assert "== execution engine ==" in row_db.explain(query)
    assert "row" in row_db.explain(query).rsplit("== execution engine ==", 1)[1]
    vec_section = vec_db.explain(query).rsplit("== execution engine ==", 1)[1]
    assert "vector" in vec_section
    assert "VecScan" in vec_section


def test_vector_stats_count_batches(engine_pairs):
    (_, _, _, _), (vec_db, _, _, _) = engine_pairs["sql"]
    result = vec_db.execute(f"SELECT COUNT(*) AS n FROM {NAMESPACE}.{DATASET} t WHERE t.ten >= 0")
    assert result.stats.exec_engine == "vector"
    assert result.stats.batches >= 1
    assert result.stats.heap_fetches == NUM_RECORDS


def test_env_variable_selects_engine(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC", "vector")
    db = SQLDatabase()
    assert db.exec_engine == "vector"
    monkeypatch.setenv("REPRO_EXEC", "bogus")
    with pytest.raises(ValueError, match="REPRO_EXEC='bogus'"):
        SQLDatabase()
    monkeypatch.delenv("REPRO_EXEC")
    assert SQLDatabase().exec_engine == "row"
    with pytest.raises(ValueError):
        SQLDatabase(exec_engine="simd")
