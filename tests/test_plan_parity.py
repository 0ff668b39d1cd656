"""Golden parity for the logical-plan compiler.

For every Table III benchmark expression, on every backend, the queries a
plan-compiled PolyFrame sends are byte-identical to what the pre-IR eager
rewriter sent (recorded in ``tests/golden/queries_<backend>.json``;
regenerate with ``tests/golden/generate_goldens.py`` only if the rules
themselves change).  That nested text is the paper's Table I shape, and
the one compiled form: flattening it is each engine's job.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import (
    AsterixDBConnector,
    MongoDBConnector,
    Neo4jConnector,
    PolyFrame,
    PostgresConnector,
)
from repro.bench.expressions import EXPRESSIONS, DataFrameAPI, benchmark_params

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

BACKENDS = ["asterixdb", "postgres", "mongodb", "neo4j"]


def _load_golden(backend: str) -> dict[str, list[str]]:
    path = os.path.join(GOLDEN_DIR, f"queries_{backend}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _make_connector(backend: str, engines):
    factories = {
        "asterixdb": AsterixDBConnector,
        "postgres": PostgresConnector,
        "mongodb": MongoDBConnector,
        "neo4j": Neo4jConnector,
    }
    return factories[backend](engines[backend])


def _sent_queries(connector):
    """Run all 13 expressions; returns the queries each one sent."""
    params = benchmark_params()
    api = DataFrameAPI()
    sent: dict[int, list[str]] = {}
    original_send = connector.send
    for expr in EXPRESSIONS:
        queries: list[str] = []

        def recording_send(query, collection, _queries=queries, **kwargs):
            _queries.append(query)
            return original_send(query, collection, **kwargs)

        connector.send = recording_send
        try:
            df = PolyFrame("Bench", "data", connector)
            df2 = PolyFrame("Bench", "data2", connector)
            expr.run(df, df2, params, api)
        finally:
            connector.send = original_send
        sent[expr.id] = queries
    return sent


@pytest.fixture(scope="module")
def engines(asterixdb, postgres, mongodb, neo4j):
    return {
        "asterixdb": asterixdb,
        "postgres": postgres,
        "mongodb": mongodb,
        "neo4j": neo4j,
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_level0_matches_golden_queries(backend, engines):
    """Plan compilation reproduces the eager rewriter's text."""
    golden = _load_golden(backend)
    sent = _sent_queries(_make_connector(backend, engines))
    for expr in EXPRESSIONS:
        assert sent[expr.id] == golden[str(expr.id)], (
            f"{backend} expression {expr.id} ({expr.name}) diverged from the "
            "pre-IR query text"
        )
