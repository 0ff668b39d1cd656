"""Regenerate ``bookkeeping.json``: what a fixed op list leaves behind.

Run from the repo root::

    PYTHONPATH=src python tests/golden/generate_bookkeeping.py

A fixed list of PolyFrame actions runs on each of the four backends, with
every knob off.  The file records, per backend, what the program keeps
about them — everything but wall-clock times:

- ``send_log``: every :class:`SendRecord`, field by field;
- ``metrics``: ``metrics.snapshot()`` after the ops, and again after
  ``metrics.reset()`` and a second, shorter op list (histograms by count);
- ``plan_text``: each answer's ``ResultSet.plan_text``, read after the send;
- ``explain``: ``explain()`` and ``explain(verbose=True)`` of each frame.

The committed file was captured before the result frame, the send log,
the metrics and the plan text were made cheaper to produce; the same ops
must leave the same bookkeeping (``tests/test_translation_layer.py``).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any

ROWS = 200
HERE = os.path.dirname(os.path.abspath(__file__))
BACKENDS = ("asterixdb", "postgres", "mongodb", "neo4j")
#: SendRecord fields that measure wall-clock time.
TIMED = ("real_seconds", "reported_seconds", "queue_wait_ms", "deadline_budget_ms")


def build(backend: str):
    """A fresh engine with ``ROWS`` Wisconsin records, and its connector."""
    from repro import AsterixDBConnector, MongoDBConnector, Neo4jConnector, PostgresConnector
    from repro.docstore import MongoDatabase
    from repro.graphdb import Neo4jDatabase
    from repro.sqlengine import SQLDatabase
    from repro.sqlpp import AsterixDB
    from repro.wisconsin import loaders, wisconsin_records

    records = wisconsin_records(ROWS, seed=2021)
    if backend == "asterixdb":
        db = AsterixDB(query_prep_overhead=0.0)
        loaders.load_asterixdb(db, "Bench", "data", records)
        return db, AsterixDBConnector(db, cache=False)
    if backend == "postgres":
        db = SQLDatabase(name="postgres")
        loaders.load_postgres(db, "Bench", "data", records)
        return db, PostgresConnector(db, cache=False)
    if backend == "mongodb":
        db = MongoDatabase(query_prep_overhead=0.0)
        loaders.load_mongodb(db, "data", records)
        return db, MongoDBConnector(db, cache=False)
    db = Neo4jDatabase(query_prep_overhead=0.0)
    loaders.load_neo4j(db, "data", records)
    return db, Neo4jConnector(db, cache=False)


def frames(connector) -> dict[str, Any]:
    """The frames the op list acts on, by name."""
    from repro import PolyFrame

    df = PolyFrame("Bench", "data", connector)
    return {
        "all": df,
        "lookup": df[df["unique1"] == 17],
        "negative": df[df["unique1"] == -3],
        "range": df[(df["onePercent"] >= 4) & (df["onePercent"] <= 9)],
        "missing": df[df["tenPercent"].isna()],
        "sorted": df.sort_values("unique1", ascending=False),
        "projected": df[["two", "four"]],
    }


def first_ops(named: dict[str, Any]) -> list[Any]:
    return [
        lambda: len(named["all"]),
        lambda: named["lookup"].head(),
        lambda: named["lookup"].head(),
        lambda: named["negative"].head(),
        lambda: len(named["range"]),
        lambda: len(named["missing"]),
        lambda: named["sorted"].head(3),
        lambda: named["projected"].head(),
        lambda: named["all"]["unique1"].max(),
        lambda: named["all"]["ten"].unique(),
        lambda: named["all"].groupby("four").agg("count").collect(),
        lambda: named["range"][["unique1", "ten"]].collect(),
    ]


def second_ops(named: dict[str, Any]) -> list[Any]:
    return [
        lambda: named["lookup"].head(),
        lambda: len(named["range"]),
        lambda: named["all"]["unique1"].min(),
    ]


def _snapshot(metrics) -> dict[str, Any]:
    snap = metrics.snapshot()
    snap["histograms"] = {name: h["count"] for name, h in snap["histograms"].items()}
    return snap


def capture(backend: str) -> dict[str, Any]:
    """Run the op list on a fresh *backend*; what its bookkeeping says."""
    from repro.obs import metrics

    db, connector = build(backend)
    named = frames(connector)
    texts: list[str] = []
    send = connector.send

    def reading(query, collection, **kwargs):
        result = send(query, collection, **kwargs)
        if not result.streaming:
            texts.append(result.plan_text)
        return result

    connector.send = reading
    metrics.reset()
    for op in first_ops(named):
        op()
    first = _snapshot(metrics)
    metrics.reset()
    for op in second_ops(named):
        op()
    second = _snapshot(metrics)
    del connector.send
    log = [
        {key: value for key, value in asdict(record).items() if key not in TIMED}
        for record in connector.send_log
    ]
    explain = {
        name: [frame.explain(), frame.explain(verbose=True)] for name, frame in named.items()
    }
    return {
        "send_log": log,
        "metrics": first,
        "metrics_after_reset": second,
        "plan_text": texts,
        "explain": explain,
    }


def generate() -> dict[str, Any]:
    return {backend: capture(backend) for backend in BACKENDS}


def main() -> None:
    path = os.path.join(HERE, "bookkeeping.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
