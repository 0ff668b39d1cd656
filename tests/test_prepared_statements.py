"""Prepared statements: one compiled shape, literals bound per call.

PolyFrame's compile cache keys on a plan's *shape* (its fingerprint with
typed ``?`` slots where literals were), and the SQL, SQL++ and Cypher
engines cache the plan they prepared for a template text and bind the
parameters per call.  These tests pin that the split changes nothing a
caller can observe: the rendered text, the records, the work counters and
the errors are the ones the literal text gives.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Neo4jConnector, PolyFrame, PostgresConnector
from repro.cluster import GreenplumCluster
from repro.core.plan import Limit, compile_plan
from repro.eager import frame_from_records
from repro.errors import PlanningError, ReproError, RewriteError
from repro.graphdb import Neo4jDatabase
from repro.obs.trace import _reset_global_tracer, set_global_tracer
from repro.sqlengine import SQLDatabase
from repro.wisconsin import loaders, wisconsin_records

BACKENDS = ("asterixdb", "postgres", "mongodb", "neo4j")
PREPARED = ("asterixdb", "postgres", "neo4j")
COUNTERS = ("heap_fetches", "index_entries", "full_scans", "string_store_reads")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _golden_module(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(GOLDEN_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden(name: str):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as handle:
        return json.load(handle)


def run(db, text: str, params: tuple = ()) -> dict:
    """What a caller can observe of one query: records, counters, or the error."""
    try:
        result = db.execute(text, params=params)
        records = result.records
    except Exception as exc:  # noqa: BLE001 - the class and message are the pin
        return {"error": [type(exc).__name__, str(exc)]}
    return {
        "records": json.dumps(records),
        "counters": {name: getattr(result.stats, name) for name in COUNTERS},
    }


# ----------------------------------------------------------------------
# Float literals every language can read back
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("value", [1e-05, 2.5e-3, 1e20, -1e-05, 123.0])
def test_exponent_float_literals_answer_like_eager(all_frames, wisconsin, backend, value):
    df = all_frames[backend]
    eager = frame_from_records(wisconsin)
    want = len(eager[eager["unique1"] > value])
    assert len(df[df["unique1"] > value]) == want
    assert len(df[df["unique1"] < value]) == len(eager[eager["unique1"] < value])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_float_literals_are_refused_by_name(all_frames, backend, value):
    df = all_frames[backend]
    with pytest.raises(RewriteError, match=repr(value)):
        df[df["unique1"] < value]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("low_op, high_op", [(">=", "<"), (">", "<="), (">", "<"), (">=", "<=")])
def test_index_range_bounds_keep_their_own_inclusivity(
    all_frames, wisconsin, backend, low_op, high_op
):
    df, eager = all_frames[backend], frame_from_records(wisconsin)
    ops = {">": "__gt__", ">=": "__ge__", "<": "__lt__", "<=": "__le__"}

    def count(frame, low, high, swap):
        lower = getattr(frame["unique1"], ops[low_op])(low)
        upper = getattr(frame["unique1"], ops[high_op])(high)
        return len(frame[upper & lower] if swap else frame[lower & upper])

    for low, high in ((0, 3), (10, 10), (41, 50)):
        for swap in (False, True):
            assert count(df, low, high, swap) == count(eager, low, high, swap)


# ----------------------------------------------------------------------
# Literal lifting: a text's literals as parameters of the same query
# ----------------------------------------------------------------------
_SQL_LITERAL = re.compile(
    r'(?P<keep>"(?:[^"]|"")*"|\b(?:LIMIT|OFFSET)\s+\d+)'
    r"|(?P<str>'(?:[^']|'')*')"
    r"|(?P<bool>\b(?:TRUE|FALSE)\b)"
    r"|(?P<num>(?<![\w.$])\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
)
_CYPHER_LITERAL = re.compile(
    r"(?P<keep>(?:'(?:\\.|[^'\\])*'|\"(?:\\.|[^\"\\])*\")(?=\s*:)|\bLIMIT\s+\d+)"
    r"|(?P<str>'(?:\\.|[^'\\])*'|\"(?:\\.|[^\"\\])*\")"
    r"|(?P<bool>\b(?i:true|false)\b)"
    r"|(?P<num>(?<![\w.$])\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
)


def lift(text: str, language: str) -> tuple[str, tuple]:
    """*text* with every literal spelled as the language's parameter."""
    pattern = _CYPHER_LITERAL if language == "cypher" else _SQL_LITERAL
    params: list = []

    def replace(match: re.Match) -> str:
        kind, literal = match.lastgroup, match.group()
        if kind == "keep":
            return literal
        if kind == "str" and language == "cypher":
            params.append(re.sub(r"\\(.)", r"\1", literal[1:-1]))
        elif kind == "str":
            params.append(literal[1:-1].replace("''", "'"))
        elif kind == "bool":
            params.append(literal.upper() == "TRUE")
        else:
            params.append(int(literal) if literal.isdigit() else float(literal))
        n = len(params)
        return f"$p{n - 1}" if language == "cypher" else f"${n}"

    return pattern.sub(replace, text), tuple(params)


def test_lift_spells_every_literal_as_a_parameter():
    template, params = lift(
        "SELECT t.\"a1\" FROM (SELECT * FROM B.d t) t WHERE t.\"x\" = 'it''s' "
        "AND t.y > -2.5e-05 AND t.z = TRUE\nLIMIT 5", "sql"
    )
    assert template == (
        "SELECT t.\"a1\" FROM (SELECT * FROM B.d t) t WHERE t.\"x\" = $1 "
        "AND t.y > -$2 AND t.z = $3\nLIMIT 5"
    )
    assert params == ("it's", 2.5e-05, True)
    template, params = lift("MATCH(t: d)\nWITH t{'k': t.a + 1} WHERE t.s = \"a\\\"b\"", "cypher")
    assert template == "MATCH(t: d)\nWITH t{'k': t.a + $p0} WHERE t.s = $p1"
    assert params == (1, 'a"b')


def _agree(db, text: str, language: str) -> tuple[str, dict, dict]:
    template, params = lift(text, language)
    return template, run(db, template, params), run(db, text)


# ----------------------------------------------------------------------
# Prepared equals text: the golden query files
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_databases():
    connectors = _golden_module("generate_goldens").build_connectors()
    return {backend: connector._db for backend, connector in connectors.items()}


@pytest.mark.parametrize(
    "backend, language", [("postgres", "sql"), ("asterixdb", "sqlpp"), ("neo4j", "cypher")]
)
def test_golden_queries_answer_the_same_prepared(golden_databases, backend, language):
    db = golden_databases[backend]
    lifted = 0
    for expression, texts in _golden(f"queries_{backend}.json").items():
        for text in texts:
            template, prepared, plain = _agree(db, text, language)
            lifted += template != text
            assert prepared == plain, (expression, text)
            assert "error" not in plain, (expression, plain)
    assert lifted >= 3  # E3, E10 and E11 carry literals


def test_cypher_corpus_answers_the_same_prepared():
    generator = _golden_module("generate_cypher_queries")
    stores = {kind: generator.build_store(kind) for kind in ("wisconsin", "mixed")}
    lifted = 0
    for case in _golden("cypher_queries.json")["cases"]:
        template, prepared, plain = _agree(stores[case["store"]], case["cypher"], "cypher")
        lifted += template != case["cypher"]
        assert prepared == plain, (case["name"], template)
    assert lifted >= 100


# ----------------------------------------------------------------------
# Prepared equals text: seeded frames, rendered byte for byte
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def frame_corpus():
    generator = _golden_module("generate_prepared_frames")
    databases = generator.build_databases()
    connectors = {
        backend: generator.connector_for(backend, db) for backend, db in databases.items()
    }
    return generator, databases, connectors, _golden("prepared_frames.json")


def test_frame_corpus_is_regenerated_from_its_seed(frame_corpus):
    generator, _databases, _connectors, corpus = frame_corpus
    specs = generator.seeded_specs(generator.random.Random(generator.SEED))
    assert specs == [case["spec"] for case in corpus["cases"]]
    assert len(specs) >= 200
    values = [term[2] for spec in specs for term in spec["terms"]]
    for wanted in (-0.0, 1e-05, 10**20, -42, "back\\slash", "$five", "it's", True, None):
        assert any(type(v) is type(wanted) and repr(v) == repr(wanted) for v in values)


@pytest.mark.parametrize("backend", BACKENDS)
def test_seeded_frames_send_the_text_they_always_sent(frame_corpus, backend):
    generator, _databases, connectors, corpus = frame_corpus
    for case in corpus["cases"]:
        sent = generator.capture(connectors[backend], case["spec"])
        assert [text for text, _ in sent] == case["sent"][backend]["0"], case["spec"]
    # One connector served every case, so where a shape repeats the text
    # was rendered from the template another case compiled.
    assert connectors[backend].compile_cache.stats()["hits"] > 0


@pytest.mark.parametrize("backend", PREPARED)
def test_seeded_frames_answer_the_same_prepared(frame_corpus, backend):
    generator, databases, connectors, corpus = frame_corpus
    db = databases[backend]
    prepared_sends = 0
    for case in corpus["cases"]:
        for text, kwargs in generator.capture(connectors[backend], case["spec"]):
            prepared = kwargs.get("prepared")
            if prepared is None:
                continue
            prepared_sends += 1
            assert run(db, *prepared) == run(db, text), (case["spec"], text)
    assert prepared_sends >= 150


def test_mongodb_is_always_sent_text(frame_corpus):
    generator, _databases, connectors, corpus = frame_corpus
    for case in corpus["cases"][:40]:
        for _text, kwargs in generator.capture(connectors["mongodb"], case["spec"]):
            assert kwargs.get("prepared") is None


# ----------------------------------------------------------------------
# The compile cache keys on shapes
# ----------------------------------------------------------------------
def test_one_shape_compiles_once_for_every_literal(postgres):
    connector = PostgresConnector(postgres, cache=False)
    af = PolyFrame("Bench", "data", connector)
    for key in range(100):
        lookup = af[af["unique1"] == key]
        compiled = lookup._compile()
        assert compiled.text == compile_plan(lookup.plan, connector.rewriter)
        assert compiled.bindings == (key,)
        assert compiled.prepared == (
            'SELECT * FROM (SELECT * FROM Bench.data t) t WHERE t."unique1" = $1', (key,)
        )
    stats = connector.compile_cache.stats()
    assert (stats["misses"], stats["hits"], stats["entries"], stats["evictions"]) == (1, 99, 1, 0)


def test_shapes_keep_types_none_and_limits(postgres):
    connector = PostgresConnector(postgres, cache=False)
    af = PolyFrame("Bench", "data", connector)
    shapes = {
        af[af["ten"] == value]._compile().shape
        for value in (1, 1.0, True, "1", None)
    }
    assert len(shapes) == 5  # ?int, ?float, ?bool, ?str, and NULL in the shape
    assert "lit(NoneType:None)" in af[af["ten"] == None]._compile().shape  # noqa: E711
    assert af[af["ten"].isin([1, 2])]._compile().bindings == ()
    assert af._compile(Limit(af.plan, 5)).shape == "limit(scan('Bench','data'),5)"


def test_one_literal_object_twice_is_one_binding(postgres):
    connector = PostgresConnector(postgres, cache=False)
    af = PolyFrame("Bench", "data", connector)
    mask = af["ten"] > 3
    shared = af[mask & mask]._compile()
    distinct = af[(af["ten"] > 3) & (af["ten"] > 4)]._compile()
    assert shared.bindings == (3,) and shared.shape != distinct.shape
    assert distinct.bindings == (3, 4)
    assert shared.prepared[0].count("$1") == 2
    assert len(af[mask & mask]) == len(af[af["ten"] > 3])


def test_explain_verbose_shows_shape_template_and_bindings(postgres):
    af = PolyFrame("Bench", "data", PostgresConnector(postgres))
    report = af[af["stringu1"] == "it's"].explain(verbose=True)
    assert "-- shape --\nfilter(scan('Bench','data'),eq(col(stringu1),?str))" in report
    assert "-- template --\nSELECT * FROM (SELECT * FROM Bench.data t) t WHERE t.\"stringu1\" = $1" in report
    assert "-- bindings -- (\"it's\",)" in report
    assert "WHERE t.\"stringu1\" = 'it''s'" in report  # the generated query


# ----------------------------------------------------------------------
# The engines' prepared-plan caches
# ----------------------------------------------------------------------
ROWS = 400
LOOKUP_SQL = 'SELECT * FROM (SELECT * FROM Bench.data t) t WHERE t."unique1" = $1\nLIMIT 5'
LOOKUP_CYPHER = "MATCH(t: data)\nWITH t WHERE t.unique1 = $p0\nRETURN t\nLIMIT 5"


@pytest.fixture()
def engines():
    records = wisconsin_records(ROWS, seed=2021)
    pg = SQLDatabase(name="postgres")
    loaders.load_postgres(pg, "Bench", "data", records)
    neo = Neo4jDatabase(query_prep_overhead=0.0)
    loaders.load_neo4j(neo, "data", records)
    return pg, neo


def test_a_repeat_is_a_plan_cache_hit(engines):
    pg, neo = engines
    for db, text in ((pg, LOOKUP_SQL), (neo, LOOKUP_CYPHER)):
        first, second = db.execute(text, params=(5,)), db.execute(text, params=(6,))
        assert (first.stats.plan_cache_misses, first.stats.plan_cache_hits) == (1, 0)
        assert (second.stats.plan_cache_misses, second.stats.plan_cache_hits) == (0, 1)
        assert [r["unique1"] for r in second.records] == [6]
        plain = db.execute(text.replace("$p0", "6").replace("$1", "6"))
        assert plain.stats.plan_cache_misses == 1 and plain.records == second.records


def test_missing_bindings_are_refused(engines):
    pg, neo = engines
    with pytest.raises(PlanningError, match=r"no value bound for parameter \$1 \(0 given\)"):
        pg.execute(LOOKUP_SQL)
    with pytest.raises(ReproError, match=r"no value bound for parameter \$p0 \(0 given\)"):
        neo.execute(LOOKUP_CYPHER)


@pytest.fixture()
def untraced(monkeypatch):
    """No process tracer, whatever the environment says: runs are plain."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    set_global_tracer(None)
    yield
    _reset_global_tracer()


def test_a_cached_plan_carries_no_run_state_into_the_next(engines, monkeypatch, untraced):
    pg, neo = engines
    trees = []
    prepare = pg._prepare

    def capturing(text, params):
        prepared = prepare(text, params)
        trees.append(prepared[1])
        return prepared

    monkeypatch.setattr(pg, "_prepare", capturing)
    range_sql = 'SELECT COUNT(*) FROM (SELECT * FROM Bench.data t) t WHERE t."ten" > $1'
    range_cypher = "MATCH(t: data)\nWITH t WHERE t.ten > $p0\nRETURN COUNT(*) AS t"
    for db, text in ((pg, range_sql), (neo, range_cypher)):
        once = db.execute(text, params=(4,), analyze=True)
        plain = db.execute(text, params=(4,))
        again = db.execute(text, params=(4,), analyze=True)
        assert plain.op_profile is None
        assert once.records == plain.records == again.records
        assert _rows(once.op_profile) == _rows(again.op_profile)  # not accumulated
    # Every run lowered the cached plan to a fresh operator tree, and the
    # plain run's tree was never instrumented.
    assert len({id(tree) for tree in trees}) == 3
    assert not any("execute" in vars(op) for op in _ops(trees[1]))
    assert all("execute" in vars(op) for op in _ops(trees[2]))


def _rows(profile) -> list:
    return [profile.rows_out] + [row for child in profile.children for row in _rows(child)]


def _ops(tree) -> list:
    return [tree] + [op for child in tree.children() for op in _ops(child)]


def test_concurrent_lookups_with_mixed_bindings(engines):
    pg, neo = engines
    for connector in (PostgresConnector(pg, cache=False), Neo4jConnector(neo, cache=False)):
        af = PolyFrame("Bench", "data", connector)

        def lookup(n: int) -> bool:
            key = (n * 7919) % ROWS
            if n % 3 == 0:
                return len(af[(af["unique1"] >= key) & (af["unique1"] < key + 3)]) == min(
                    3, ROWS - key
                )
            rows = af[af["unique1"] == key].head().to_records()
            return [row["unique1"] for row in rows] == [key]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: races show up
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                answers = list(pool.map(lookup, range(8 * 200), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(answers)
        # Two templates served 1,600 calls; threads racing on a first call
        # may each prepare it, and one entry wins.
        stats = connector._db.plan_cache.stats()
        assert stats["entries"] == 2 and stats["hits"] + stats["misses"] == 8 * 200
        assert stats["misses"] <= 2 * 8


def test_dropping_an_index_changes_the_plan_of_a_cached_text(engines):
    pg, neo = engines
    index = "Bench.data_unique1_idx".replace(".", "_")
    assert "IndexEqualityScan" in pg.execute(LOOKUP_SQL, params=(9,)).plan_text
    epoch = pg.catalog.epoch
    pg.catalog.drop_index("Bench.data", index)
    assert pg.catalog.epoch == epoch + 1
    dropped = pg.execute(LOOKUP_SQL, params=(9,))
    assert "SeqScan" in dropped.plan_text and "IndexEqualityScan" not in dropped.plan_text
    assert dropped.stats.plan_cache_misses == 1  # a new epoch prepares afresh
    pg.create_index("Bench.data", "unique1")
    assert "IndexEqualityScan" in pg.execute(LOOKUP_SQL, params=(9,)).plan_text

    seek = neo.execute(LOOKUP_CYPHER, params=(9,)).stats
    neo.drop_index("data", "unique1")
    scan = neo.execute(LOOKUP_CYPHER, params=(9,)).stats
    neo.create_index("data", "unique1")
    again = neo.execute(LOOKUP_CYPHER, params=(9,)).stats
    assert (seek.full_scans, seek.index_entries > 0) == (0, True)
    assert (scan.full_scans, scan.index_entries) == (1, 0)
    assert (again.full_scans, again.index_entries) == (seek.full_scans, seek.index_entries)


def test_appends_do_not_invalidate_prepared_plans(engines):
    pg, neo = engines
    new = dict(wisconsin_records(1, seed=7)[0], unique1=ROWS + 1, unique2=ROWS + 1)
    for db, text, append in (
        (pg, LOOKUP_SQL, lambda: pg.insert("Bench.data", [new])),
        (neo, LOOKUP_CYPHER, lambda: neo.load("data", [new])),
    ):
        db.execute(text, params=(1,))
        hits = db.plan_cache.stats()["hits"]
        append()
        result = db.execute(text, params=(ROWS + 1,))
        assert result.stats.plan_cache_hits == 1
        assert db.plan_cache.stats()["hits"] == hits + 1
        assert [row["unique1"] for row in result.records] == [ROWS + 1]


def test_sharded_cluster_binds_on_every_shard_and_keys_its_cache_on_bindings():
    cluster = GreenplumCluster(3, cache=True)
    cluster.create_table("B.d", primary_key="k")
    cluster.insert("B.d", [{"k": i, "v": i % 2 == 1, "w": i % 4} for i in range(40)], shard_key="k")
    template = 'SELECT COUNT(*) FROM (SELECT * FROM B.d t) t WHERE t."w" = $1'
    counts = [cluster.execute(template, params=(value,)).scalar() for value in (1, 1.0, True, 1)]
    plain = [cluster.execute(text).scalar() for text in (
        'SELECT COUNT(*) FROM (SELECT * FROM B.d t) t WHERE t."w" = 1',
        'SELECT COUNT(*) FROM (SELECT * FROM B.d t) t WHERE t."w" = 1.0',
        'SELECT COUNT(*) FROM (SELECT * FROM B.d t) t WHERE t."w" = TRUE',
    )]
    assert counts[:3] == plain
    assert counts[3] == counts[0]
    last = cluster.execute(template, params=(True,))
    assert last.stats.result_cache_hits == 3  # each shard's own answer for True
