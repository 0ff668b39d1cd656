"""Knob-matrix differential: any ``Config`` answers like the default one.

A derandomized hypothesis test draws full ``Config`` values over every
field but the chaos pair, sets each through the environment the way a
user or CI would, and checks that ``Config.resolve()`` reads it back.
It then builds the four single-node backends and a 4-node Greenplum
cluster under it and runs the 13 Table III expressions, twice (the
second pass is served by the result cache when one is on).  Every
answer must equal the default-``Config`` answer, compared the way
``test_cache_parity.py`` compares: eager frames as sorted record tuples,
scalars as they are, errors by type.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AsterixDBConnector,
    Config,
    MongoDBConnector,
    Neo4jConnector,
    PolyFrame,
    PostgresConnector,
)
from repro.bench.expressions import EXPRESSIONS, DataFrameAPI, benchmark_params
from repro.cluster import GreenplumCluster, ThreadPoolDispatcher
from repro.config import KNOBS
from repro.docstore import MongoDatabase
from repro.eager import EagerFrame
from repro.graphdb import Neo4jDatabase
from repro.obs.trace import _reset_global_tracer
from repro.sqlengine import SQLDatabase
from repro.sqlpp import AsterixDB
from repro.wisconsin import loaders, wisconsin_records

RECORDS = wisconsin_records(120)
API = DataFrameAPI()
PARAMS = benchmark_params()
DATASETS = ("data", "data2")

CONFIGS = st.builds(
    Config,
    exec_engine=st.sampled_from(["row", "vector"]),
    memory_budget=st.sampled_from([None, 2048, 32 * 1024]),
    cache=st.sampled_from([None, 4096, 64 * 1024 * 1024]),
    deadline=st.sampled_from([None, 60.0]),
    admission=st.booleans(),
    dispatch=st.sampled_from(["serial", "threads"]),
    replication_factor=st.integers(1, 3),
    trace=st.booleans(),
)


def _spelling(value) -> str:
    """How the environment spells one field value."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    if value is None or value is False:
        return "0"
    return "1" if value is True else str(value)


@contextmanager
def environment(config: Config):
    """Every knob variable set to *config*'s value, then restored."""
    saved = {knob.env: os.environ.get(knob.env) for knob in KNOBS}
    os.environ.update({knob.env: _spelling(getattr(config, knob.field)) for knob in KNOBS})
    _reset_global_tracer()
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        _reset_global_tracer()


def _systems() -> dict:
    postgres = SQLDatabase(name="postgres")
    asterixdb = AsterixDB(query_prep_overhead=0.0)
    mongodb = MongoDatabase(query_prep_overhead=0.0)
    neo4j = Neo4jDatabase(query_prep_overhead=0.0)
    greenplum = GreenplumCluster(4, query_prep_overhead=0.0)
    for dataset in DATASETS:
        loaders.load_postgres(postgres, "Bench", dataset, RECORDS)
        loaders.load_asterixdb(asterixdb, "Bench", dataset, RECORDS)
        loaders.load_mongodb(mongodb, dataset, RECORDS)
        loaders.load_neo4j(neo4j, dataset, RECORDS)
        greenplum.create_table(f"Bench.{dataset}", primary_key=loaders.PRIMARY_KEY)
        greenplum.insert(f"Bench.{dataset}", RECORDS, shard_key="unique1")
    return {
        "postgres": PostgresConnector(postgres),
        "asterixdb": AsterixDBConnector(asterixdb),
        "mongodb": MongoDBConnector(mongodb),
        "neo4j": Neo4jConnector(neo4j),
        "greenplum[4]": PostgresConnector(greenplum),
    }


def _normalize(result):
    if isinstance(result, EagerFrame):
        return sorted(tuple(sorted(record.items())) for record in result.to_records())
    return result


def _answers(config: Config) -> dict:
    with environment(config):
        assert Config.resolve() == config
        systems = _systems()
        answers = {}
        try:
            for name, connector in systems.items():
                df = PolyFrame("Bench", "data", connector)
                df2 = PolyFrame("Bench", "data2", connector)
                for expr in EXPRESSIONS:
                    for attempt in (1, 2):
                        try:
                            got = _normalize(expr.run(df, df2, PARAMS, API))
                        except Exception as exc:  # noqa: BLE001 - errors must match too
                            got = type(exc).__name__
                        answers[(name, expr.id, attempt)] = got
        finally:
            dispatcher = systems["greenplum[4]"]._db.dispatcher
            if isinstance(dispatcher, ThreadPoolDispatcher):
                dispatcher.close()  # no worker threads outlive the example
    return answers


@pytest.fixture(scope="module")
def default_answers():
    return _answers(Config())


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(config=CONFIGS)
def test_any_config_answers_like_the_default(default_answers, config):
    answers = _answers(config)
    diverged = sorted(key for key in answers if answers[key] != default_answers[key])
    assert not diverged, f"{config!r} changed {diverged}"
