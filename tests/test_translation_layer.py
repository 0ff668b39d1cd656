"""The translation layer pays only for what is on, and keeps the same books.

- The same op list leaves the same send log, metrics, plan texts and
  ``explain`` text as the committed capture (``golden/bookkeeping.json``).
- The result frame charges the accountant exactly what
  ``estimate_column_bytes`` says, computed while the frame is built.
- ``ResultSet.plan_text`` is rendered on first read.
- Join keys go through the shared key funnel, so a map-valued key fails
  with an error naming the join.
- DEBUG logging does not drain a streamed send.
- Metric series looked up once still count every increment from every
  thread.
"""

from __future__ import annotations

import importlib.util
import json
import logging
import os
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PolyFrame, PostgresConnector
from repro.eager import frame_from_records
from repro.eager.memory import GLOBAL_ACCOUNTANT, estimate_column_bytes, estimate_value_bytes
from repro.errors import ExecutionError
from repro.obs import MetricsRegistry, metrics, set_global_tracer
from repro.obs.trace import _reset_global_tracer
from repro.resilience import FaultInjector
from repro.sqlengine import SQLDatabase
from repro.sqlengine.physical import PhysicalPlan
from repro.sqlpp import AsterixDB
from repro.storage.keys import SENTINEL_MISSING

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.fixture()
def plain(monkeypatch):
    """Every knob off and no process tracer, whatever the environment says."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    set_global_tracer(None)
    yield
    _reset_global_tracer()


# ----------------------------------------------------------------------
# Same answers, same bookkeeping
# ----------------------------------------------------------------------
def _bookkeeping():
    path = os.path.join(GOLDEN_DIR, "generate_bookkeeping.py")
    spec = importlib.util.spec_from_file_location("generate_bookkeeping", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("backend", ["asterixdb", "postgres", "mongodb", "neo4j"])
def test_the_op_list_keeps_the_books_it_always_kept(plain, backend):
    with open(os.path.join(GOLDEN_DIR, "bookkeeping.json"), encoding="utf-8") as handle:
        expected = json.load(handle)[backend]
    try:
        got = json.loads(json.dumps(_bookkeeping().capture(backend)))
    finally:
        metrics.reset()
    for part in ("send_log", "metrics", "metrics_after_reset", "plan_text", "explain"):
        assert got[part] == expected[part], part


# ----------------------------------------------------------------------
# The accountant charge, computed while the frame is built
# ----------------------------------------------------------------------
class Tens(int):
    """An ``int`` subclass: priced like an int, not by its exact type."""


VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.builds(Tens, st.integers(-5, 5)),
    st.floats(allow_nan=False),
    st.text(alphabet="abcxyz", max_size=6),
    st.text(max_size=6),  # non-ASCII too: the estimate counts characters
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.integers(), max_size=2),
    st.just(SENTINEL_MISSING),
)
RECORDS = st.lists(
    st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), VALUES, max_size=4), max_size=6
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(RECORDS)
def test_the_frame_charges_what_the_column_estimate_says(records):
    before = GLOBAL_ACCOUNTANT.live_bytes
    frame = frame_from_records(records)
    charged = GLOBAL_ACCOUNTANT.live_bytes - before
    columns = {name: frame.column_values(name) for name in frame.columns}
    assert charged == sum(
        8 * len(values) + sum(estimate_value_bytes(value) for value in values)
        for values in columns.values()
    )
    assert charged == sum(estimate_column_bytes(values) for values in columns.values())
    # Ragged rows: first-seen column order, None where a record lacks a key.
    order = list(dict.fromkeys(name for record in records for name in record))
    assert frame.columns == order
    rows = [{name: r.get(name) for name in order} for r in records] if order else []
    assert frame.to_records() == rows
    del frame
    assert GLOBAL_ACCOUNTANT.live_bytes == before


# ----------------------------------------------------------------------
# plan_text on first read
# ----------------------------------------------------------------------
def test_plan_text_is_rendered_when_first_read(monkeypatch):
    db = SQLDatabase()
    db.create_table("T.d", primary_key="id")
    db.insert("T.d", [{"id": i} for i in range(5)])
    renders = []
    tree_string = PhysicalPlan.tree_string

    def counting(self, indent=0):
        if indent == 0:
            renders.append(self)
        return tree_string(self, indent)

    monkeypatch.setattr(PhysicalPlan, "tree_string", counting)
    result = db.execute("SELECT t.id FROM T.d t WHERE t.id = $1", params=(3,))
    assert renders == []
    assert result.plan_text.splitlines()[-1].strip().startswith("IndexEqualityScan")
    assert result.plan_text == result.plan_text
    assert len(renders) == 1


# ----------------------------------------------------------------------
# Map-valued join keys
# ----------------------------------------------------------------------
def _maps(db, load):
    for name in ("d", "e"):
        load(name, [{"k": i, "m": {"a": i}} for i in range(3)])
    return db


def _sqlpp(exec_engine):
    db = AsterixDB(query_prep_overhead=0.0, exec_engine=exec_engine)
    db.create_dataverse("B")

    def load(name, rows):
        db.create_dataset("B", name, primary_key="k")
        db.load(f"B.{name}", rows)

    return _maps(db, load)


def _sql(exec_engine):
    db = SQLDatabase(exec_engine=exec_engine)

    def load(name, rows):
        db.create_table(f"B.{name}", primary_key="k")
        db.insert(f"B.{name}", rows)

    return _maps(db, load)


JOINS = [
    # A hash join keyed on the maps themselves.
    (_sqlpp, "SELECT l, r FROM (SELECT VALUE t FROM B.d t) l "
             "JOIN (SELECT VALUE t FROM B.e t) r ON l.m = r.m", "HashJoin"),
    # An index nested loop join probing the primary key with a map.
    (_sqlpp, "SELECT VALUE l FROM (SELECT VALUE t FROM B.d t) l JOIN B.e r ON l.m = r.k",
     "IndexNestedLoopJoin"),
    (_sql, "SELECT l.k FROM (SELECT * FROM B.d t) l JOIN B.e r ON l.m = r.k",
     "IndexNestedLoopJoin"),
]


@pytest.mark.parametrize("exec_engine", ["row", "vector"])  # joins run on rows under both
@pytest.mark.parametrize(
    "make, query, operator", JOINS, ids=["sqlpp-hash", "sqlpp-index", "sql-index"]
)
def test_a_map_valued_join_key_fails_naming_the_join(make, query, operator, exec_engine):
    db = make(exec_engine)
    assert operator in db.explain(query)
    with pytest.raises(ExecutionError, match="cannot apply JOIN to dict"):
        db.execute(query)


# ----------------------------------------------------------------------
# DEBUG logging does not change execution
# ----------------------------------------------------------------------
@pytest.mark.parametrize("level", [logging.WARNING, logging.DEBUG])
def test_a_streamed_send_stays_streaming_with_debug_logging(plain, caplog, level):
    db = SQLDatabase()
    db.create_table("T.d", primary_key="id")
    db.insert("T.d", [{"id": i} for i in range(30)])
    connector = PostgresConnector(db, fault_injector=FaultInjector(), cache=False)
    query = PolyFrame("T", "d", connector).query
    with caplog.at_level(level, logger="repro"):
        result = connector.send(query, "d", stream=True)
        assert result.streaming
    assert len(list(result.iter_records())) == 30
    if level == logging.DEBUG:
        assert "streaming" in caplog.records[-1].getMessage()


# ----------------------------------------------------------------------
# Metric series looked up once, shared by threads
# ----------------------------------------------------------------------
def test_series_looked_up_once_count_every_thread():
    registry = MetricsRegistry()

    def bump():
        for _ in range(2000):
            registry.count("queries_total", "postgres")
            registry.observe("query_seconds", "postgres", 0.5)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert registry.counter_value("queries_total") == 16000
    assert registry.counter_value("queries_total", backend="postgres") == 16000
    histogram = registry.snapshot()["histograms"]["query_seconds{backend=postgres}"]
    assert histogram["count"] == 16000
