"""Cache-correctness battery: the result cache never changes an answer.

Differential property tests for the semantic result cache (see
``docs/caching.md``).  The ground truth is always an identically built
*uncached* system; the cached system must be byte-identical to it:

1. **Read parity** — all 13 Table III expressions, on all four backends,
   with the warm (second) pass asserted to actually serve hits.
2. **Write freshness** — interleaved ``persist()`` writes (and
   engine-level appends reported via ``note_write``) between repeated
   reads: the stale-read regression test.
3. **Randomized interleavings** — a seeded random schedule of reads,
   repeats, and writes replayed against cached and uncached twins.
4. **Chaos determinism** — fault injection with retries on top of the
   cache still answers exactly like a clean uncached system.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    AsterixDBConnector,
    MongoDBConnector,
    Neo4jConnector,
    PolyFrame,
    PostgresConnector,
)
from repro.bench.expressions import EXPRESSIONS, DataFrameAPI, benchmark_params
from repro.docstore import MongoDatabase
from repro.eager import EagerFrame
from repro.graphdb import Neo4jDatabase
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.sqlengine import SQLDatabase
from repro.sqlpp import AsterixDB
from repro.wisconsin import loaders, wisconsin_records

RECORDS = 240
BACKENDS = ("postgres", "asterixdb", "mongodb", "neo4j")

API = DataFrameAPI()
PARAMS = benchmark_params()

_FACTORIES = {
    "asterixdb": AsterixDBConnector,
    "postgres": PostgresConnector,
    "mongodb": MongoDBConnector,
    "neo4j": Neo4jConnector,
}


def _build_engine(backend: str, records):
    if backend == "postgres":
        db = SQLDatabase(name="postgres")
        loaders.load_postgres(db, "Bench", "data", records, indexes=False)
        loaders.load_postgres(db, "Bench", "data2", records, indexes=False)
    elif backend == "asterixdb":
        db = AsterixDB(query_prep_overhead=0.0)
        loaders.load_asterixdb(db, "Bench", "data", records, indexes=False)
        loaders.load_asterixdb(db, "Bench", "data2", records, indexes=False)
    elif backend == "mongodb":
        db = MongoDatabase(query_prep_overhead=0.0)
        loaders.load_mongodb(db, "data", records, indexes=False)
        loaders.load_mongodb(db, "data2", records, indexes=False)
    else:
        db = Neo4jDatabase(query_prep_overhead=0.0)
        loaders.load_neo4j(db, "data", records, indexes=False)
        loaders.load_neo4j(db, "data2", records, indexes=False)
    return db


@pytest.fixture(scope="module")
def engines():
    """Fresh read-only engines, shared by cached and uncached connectors."""
    records = wisconsin_records(RECORDS)
    return {backend: _build_engine(backend, records) for backend in BACKENDS}


def _make_connector(backend: str, engines, *, cache):
    # cache=False must stay off even when the suite runs under
    # REPRO_CACHE=1 — that is the differential baseline.
    return _FACTORIES[backend](engines[backend], cache=cache)


def _normalize(result):
    if isinstance(result, EagerFrame):
        return sorted(
            tuple(sorted(record.items())) for record in result.to_records()
        )
    return result


def _run_expressions(connector):
    df = PolyFrame("Bench", "data", connector)
    df2 = PolyFrame("Bench", "data2", connector)
    return {
        expr.id: _normalize(expr.run(df, df2, PARAMS, API))
        for expr in EXPRESSIONS
    }


# ----------------------------------------------------------------------
# 1. Read parity: expressions x backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_cache_on_equals_cache_off(backend, engines):
    baseline = _run_expressions(_make_connector(backend, engines, cache=False))
    cached = _make_connector(backend, engines, cache=True)
    cold = _run_expressions(cached)
    warm = _run_expressions(cached)
    assert cold == baseline, f"{backend}: cold pass diverged"
    assert warm == baseline, f"{backend}: warm pass diverged"
    # The warm pass must really have been served from cache, and the
    # cumulative counters must agree with the per-send log.
    stats = cached.result_cache.stats()
    assert stats["hits"] > 0
    assert stats["evictions"] == 0  # nothing evicts at this scale
    assert sum(r.cache_hits for r in cached.send_log) == stats["hits"]
    assert sum(r.cache_misses for r in cached.send_log) == stats["misses"]


# ----------------------------------------------------------------------
# 2. Write freshness: interleaved persist() between repeated reads
# ----------------------------------------------------------------------
STALE_RECORDS = 120
TARGET = "cache_stale"


def _extra_records(n: int = 15, start: int = STALE_RECORDS):
    """Appendable rows whose primary keys don't collide with the base."""
    extra = wisconsin_records(n)
    for offset, record in enumerate(extra):
        record["unique1"] = start + offset
        record["unique2"] = start + offset
    return extra


def _count(connector, collection: str) -> int:
    return len(PolyFrame("Bench", collection, connector).collect().to_records())


def _stale_script(backend: str, db, connector) -> list[int]:
    """Reads interleaved with writes; returns every count observed."""
    df = PolyFrame("Bench", "data", connector)
    subset = df[df["ten"] == 3]
    reads = [_count(connector, "data"), _count(connector, "data")]
    persisted = subset.persist(TARGET, "Bench")
    reads += [
        len(persisted.collect().to_records()),
        len(persisted.collect().to_records()),
    ]
    # The second write, between reads.  Mongo's $out replaces the target
    # and Cypher's repeat persist appends to the label — both through
    # persist() itself.  The SQL engines refuse to re-create an existing
    # container, so they exercise the other invalidation path: a direct
    # engine-level append reported through connector.note_write().
    if backend == "mongodb":
        df[df["ten"] <= 5].persist(TARGET, "Bench")
    elif backend == "neo4j":
        subset.persist(TARGET, "Bench")
    elif backend == "postgres":
        db.insert("Bench.data", _extra_records())
        connector.note_write("Bench.data", "data")
    else:
        db.load("Bench.data", _extra_records())
        connector.note_write("Bench.data", "data")
    reads += [len(persisted.collect().to_records()), _count(connector, "data")]
    return reads


@pytest.mark.parametrize("backend", BACKENDS)
def test_interleaved_persist_never_serves_stale_reads(backend):
    records = wisconsin_records(STALE_RECORDS)
    baseline_db = _build_engine(backend, records)
    baseline = _stale_script(
        backend, baseline_db, _FACTORIES[backend](baseline_db, cache=False)
    )
    cached_db = _build_engine(backend, records)
    connector = _FACTORIES[backend](cached_db, cache=True)
    observed = _stale_script(backend, cached_db, connector)

    assert observed == baseline, f"{backend}: cached reads diverged"
    # Not vacuous: the second write visibly changed what a read returns
    # (the persisted target for the document/graph stores, the source
    # dataset for the appending SQL engines).
    assert baseline[4] != baseline[3] or baseline[5] != baseline[0]
    stats = connector.result_cache.stats()
    assert stats["hits"] > 0, f"{backend}: repeats never hit the cache"
    assert stats["invalidations"] > 0, f"{backend}: writes went unnoticed"


# ----------------------------------------------------------------------
# 3. Randomized interleavings (seeded, reproducible)
# ----------------------------------------------------------------------
def _random_schedule(seed: int, steps: int = 30):
    """A seeded mix of expression reads (repeat-heavy) and writes."""
    rng = random.Random(seed)
    read_ids = [expr.id for expr in EXPRESSIONS if expr.id != 12]
    schedule: list[tuple[str, int]] = []
    recent: list[int] = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.15:
            schedule.append(("write", rng.randrange(1_000_000)))
        elif recent and roll < 0.55:
            schedule.append(("read", rng.choice(recent)))  # likely a hit
        else:
            expr_id = rng.choice(read_ids)
            recent.append(expr_id)
            schedule.append(("read", expr_id))
    return schedule


def _replay(schedule, db, connector) -> list:
    df = PolyFrame("Bench", "data", connector)
    df2 = PolyFrame("Bench", "data2", connector)
    exprs = {expr.id: expr for expr in EXPRESSIONS}
    outputs = []
    next_key = STALE_RECORDS
    for op, arg in schedule:
        if op == "read":
            outputs.append(_normalize(exprs[arg].run(df, df2, PARAMS, API)))
        else:
            db.insert("Bench.data", _extra_records(1, start=next_key))
            next_key += 1
            connector.note_write("Bench.data", "data")
            outputs.append(("write", arg))
    return outputs


@pytest.mark.parametrize("seed", [2021, 7, 99])
def test_randomized_read_write_interleavings_match(seed):
    schedule = _random_schedule(seed)
    records = wisconsin_records(STALE_RECORDS)

    baseline_db = _build_engine("postgres", records)
    baseline = _replay(
        schedule, baseline_db, PostgresConnector(baseline_db, cache=False)
    )
    cached_db = _build_engine("postgres", records)
    connector = PostgresConnector(cached_db, cache=True)
    observed = _replay(schedule, cached_db, connector)

    assert observed == baseline, f"seed {seed}: interleaving diverged"
    stats = connector.result_cache.stats()
    assert stats["hits"] > 0, f"seed {seed}: schedule produced no hits"


# ----------------------------------------------------------------------
# 4. Chaos determinism: faults + retries on top of the cache
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ("postgres", "mongodb"))
def test_cache_with_fault_injection_stays_deterministic(backend, engines):
    baseline = _run_expressions(_make_connector(backend, engines, cache=False))
    injector = FaultInjector(seed=7, sleep=lambda _s: None)
    injector.transient_rate(0.1)
    chaotic = _FACTORIES[backend](
        engines[backend],
        cache=True,
        fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=5, sleep=lambda _s: None),
    )
    assert _run_expressions(chaotic) == baseline
    assert _run_expressions(chaotic) == baseline
    assert chaotic.result_cache.stats()["hits"] > 0
    # Retried sends really happened and never poisoned the cache.
    assert sum(r.attempts for r in chaotic.send_log) > sum(
        1 for r in chaotic.send_log if r.attempts > 0
    )
