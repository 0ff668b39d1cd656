"""Whole Cypher queries give the same records and book the same work counters.

``tests/golden/cypher_queries.json`` was captured from the row-at-a-time
clause chain, before shape-resolved property reads and the fused
label-scan → aggregate step: Table III, every Neo4j cell of the
``point_lookup`` / ``full_scan`` / ``cached_readwrite`` perf workloads, and
seeded group-by / filter / projection queries over mixed-type nodes.  Each
case replays plain, profiled (``analyze=True``, the chain tracing runs)
and streamed, and must match as JSON text — records, key order, ``1`` vs
``1.0``, and ``heap_fetches`` / ``index_entries`` / ``full_scans`` /
``string_store_reads``.

The only expectations that changed are listed in ``EDITED_DEAD_PROJECTIONS``
— a map projection such as ``t{.*, r}`` that no later clause reads is no
longer built, so its ``string_store_reads`` fall to 0 — and in
``EDITED_RAW_ERRORS``: a query that failed with a bare Python exception
now fails with the ``ExecutionError`` naming the function.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Every case whose expectation changed: a dead projection before a count.
EDITED_DEAD_PROJECTIONS = [
    "table3/E12",
    "full_scan/E12@data",
    "cached_readwrite/E12@data2",
    "seeded/41",
    "shape/0",
    "shape/1",
    "shape/2",
    "shape/3",
]
#: Every case whose bare Python exception became an ``ExecutionError``.
EDITED_RAW_ERRORS = ["shape/8"]


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_cypher_queries", os.path.join(GOLDEN_DIR, "generate_cypher_queries.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def generator():
    return _load_generator()


@pytest.fixture(scope="module")
def corpus():
    with open(os.path.join(GOLDEN_DIR, "cypher_queries.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def stores(generator):
    return {kind: generator.build_store(kind) for kind in ("wisconsin", "mixed")}


@pytest.mark.parametrize("mode", ["plain", "analyze", "stream"])
def test_every_query_replays_with_zero_mismatches(generator, corpus, stores, mode):
    mismatches = []
    for case in corpus["cases"]:
        got = generator.run_query(stores[case["store"]], case["cypher"], mode)
        if json.dumps(got) != json.dumps(case["want"]):
            mismatches.append((case["name"], case["cypher"], got, case["want"]))
    assert not mismatches, mismatches[:3]


def test_edited_expectations_are_exactly_the_dead_projections(corpus):
    edited = [case for case in corpus["cases"] if "edited" in case]
    assert [case["name"] for case in edited] == sorted(
        EDITED_DEAD_PROJECTIONS + EDITED_RAW_ERRORS, key=[c["name"] for c in corpus["cases"]].index
    )
    for case in edited:
        if case["name"] in EDITED_RAW_ERRORS:
            assert case["edited"]["before"]["error"][0] == "IndexError"
            assert case["want"]["error"][0] == "ExecutionError"
            continue
        before, now = case["edited"]["before"], case["want"]
        assert before["records"] == now["records"]
        assert now["counters"]["string_store_reads"] == 0 < before["counters"]["string_store_reads"]
        assert {k: v for k, v in now["counters"].items() if k != "string_store_reads"} == {
            k: v for k, v in before["counters"].items() if k != "string_store_reads"
        }


def test_generator_reproduces_the_committed_cases(generator, corpus):
    """Same seed, same query texts (the answers are the replay test's job)."""
    rng = generator.random.Random(generator.SEED)
    fresh = generator.fixed_cases() + generator.seeded_cases(rng)
    committed = [{k: v for k, v in case.items() if k not in ("want", "edited")}
                 for case in corpus["cases"]]
    assert fresh == committed


def test_corpus_covers_what_it_pins(corpus):
    cases = corpus["cases"]
    names = [case["name"] for case in cases]
    assert [n for n in names if n.startswith("table3/")] == [f"table3/E{n}" for n in range(1, 14)]
    seeded = [case for case in cases if case["name"].startswith("seeded/")]
    assert len(seeded) >= 80
    texts = "\n".join(case["cypher"] for case in seeded)
    for word in ("count(*)", "count(t.", "min(", "max(", "sum(", "avg(", "stdevp(",
                 " AND ", " OR ", "NOT ", "IS NULL", "ORDER BY", "LIMIT", "WITH t{"):
        assert word in texts, word
    counters = [case["want"]["counters"] for case in seeded if "counters" in case["want"]]
    assert sum(c["index_entries"] > 0 for c in counters) >= 20  # index-seeded
    assert sum(c["full_scans"] > 0 for c in counters) >= 20  # label scans
    assert sum(c["string_store_reads"] > 0 for c in counters) >= 20
    assert any("error" in case["want"] for case in cases)
