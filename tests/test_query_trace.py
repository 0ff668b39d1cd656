"""Query-trace logging tests."""

from __future__ import annotations

import logging

from repro import PolyFrame, PostgresConnector
from repro.resilience import FaultInjector
from repro.sqlengine import SQLDatabase


def make_frame():
    db = SQLDatabase()
    db.create_table("T.d", primary_key="id")
    db.insert("T.d", [{"id": i, "v": i % 3} for i in range(30)])
    # A private injector without rules: the process-wide one that the
    # chaos env configures could fail and retry a query.
    return PolyFrame("T", "d", PostgresConnector(db, fault_injector=FaultInjector()))


def test_debug_trace_logs_queries(caplog):
    frame = make_frame()
    with caplog.at_level(logging.DEBUG, logger="repro.polyframe"):
        frame.head(3)
    assert len(caplog.records) == 1
    message = caplog.records[0].getMessage()
    assert "SELECT" in message and "3 rows" in message


def test_no_trace_by_default(caplog):
    frame = make_frame()
    with caplog.at_level(logging.INFO, logger="repro.polyframe"):
        frame.head(3)
    assert not caplog.records


def test_every_action_traced(caplog):
    frame = make_frame()
    with caplog.at_level(logging.DEBUG, logger="repro.polyframe"):
        len(frame)
        frame["v"].max()
        frame.collect()
    # Count the per-query trace lines only: under the CI chaos env a
    # retried attempt logs its own DEBUG line on the same logger.
    traces = [r for r in caplog.records if " <- " in r.getMessage()]
    assert len(traces) == 3
