"""One ``Config``: every ``REPRO_*`` knob, parsed by one table.

Three tables pin the configuration layer (``repro.config``):

1. **Spellings** — every field × each accepted spelling, the empty
   string, and malformed values; the environment and an explicit kwarg go
   through the same parser, and a malformed value raises ``ConfigError``
   naming the variable, the value and the accepted spellings.
2. **Resolution** — what each connector, cluster and engine ends up with:
   kwarg beats environment beats default, an explicit off pins a knob
   off, shared instances pass through, and the env-driven chaos pair.
3. **The README's "Configuration" table** — the same rows as ``KNOBS``,
   and no ``REPRO_*`` name in the code, docs or CI that is neither a knob
   nor one of the bench-sizing variables its footnote lists.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro import Config, PolyFrame, PostgresConnector
from repro.cache import DEFAULT_MAX_BYTES, ResultCache
from repro.cluster import GreenplumCluster
from repro.cluster.dispatch import ThreadPoolDispatcher
from repro.config import KNOBS
from repro.docstore import MongoDatabase
from repro.errors import ConfigError, ShardFailureError, TransientBackendError
from repro.graphdb import Neo4jDatabase
from repro.obs.trace import _reset_global_tracer, get_tracer
from repro.resilience import AdmissionController, FaultInjector, RetryPolicy, no_sleep
from repro.sqlengine import SQLDatabase
from repro.sqlpp import AsterixDB

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
COUNT = "SELECT COUNT(*) FROM t x"
MIB = 1024 * 1024
KNOB = {knob.field: knob for knob in KNOBS}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Every row starts from an unset environment (CI sets some knobs)."""
    for knob in KNOBS:
        monkeypatch.delenv(knob.env, raising=False)
    _reset_global_tracer()
    yield
    _reset_global_tracer()


def connector(**kwargs) -> PostgresConnector:
    db = SQLDatabase()
    db.create_table("t")
    db.insert("t", [{"a": 1}, {"a": 2}])
    return PostgresConnector(db, **kwargs)


def cluster(num_nodes: int = 2, **kwargs) -> GreenplumCluster:
    cluster = GreenplumCluster(num_nodes, query_prep_overhead=0.0, **kwargs)
    cluster.create_table("t")
    cluster.insert("t", [{"a": n} for n in range(8)], shard_key="a")
    return cluster


def send_attempts(conn: PostgresConnector, sends: int = 20) -> list[int]:
    conn.result_cache = None  # every send must really execute
    for _ in range(sends):
        assert conn.send(COUNT, "t").scalar() == 2
    return [record.attempts for record in conn.send_log]


# ----------------------------------------------------------------------
# 1. Spellings: field x {each accepted spelling, empty, malformed}
# ----------------------------------------------------------------------
SWITCH = [(text, True) for text in ("1", "true", "yes", "on", "ON")] + [
    (text, False) for text in ("0", "false", "no", "off", "Off")
]
ACCEPTED = [
    ("exec_engine", "row", "row"),
    ("exec_engine", "Vector", "vector"),
    ("memory_budget", "4096", 4096),
    ("memory_budget", "32k", 32 * 1024),
    ("memory_budget", "2M", 2 * MIB),
    ("memory_budget", "1g", 1024 * MIB),
    ("memory_budget", "0", None),
    *[("cache", text, DEFAULT_MAX_BYTES if on else None) for text, on in SWITCH],
    ("cache", "64m", 64 * MIB),
    ("cache", "2k", 2048),
    ("deadline", "5", 5.0),
    ("deadline", "2.5", 2.5),
    ("deadline", "0", None),
    ("deadline", "-3", None),
    *[("admission", text, on) for text, on in SWITCH],
    ("dispatch", "serial", "serial"),
    ("dispatch", "threads", "threads"),
    ("replication_factor", "1", 1),
    ("replication_factor", "3", 3),
    *[("trace", text, on) for text, on in SWITCH],
    ("fault_rate", "0", 0.0),
    ("fault_rate", "0.25", 0.25),
    ("fault_rate", "1", 1.0),
    ("node_down", "1", (1,)),
    ("node_down", "1, 3", (1, 3)),
]
MALFORMED = [
    ("exec_engine", "vectr"),  # was silently row
    ("memory_budget", "lots"),  # did not name the variable
    ("memory_budget", "64mb"),
    ("memory_budget", "-1"),
    ("cache", "lots"),
    ("cache", "-5"),
    ("deadline", "5s"),  # was silently no deadline
    ("deadline", "garbage"),
    ("admission", "maybe"),  # any non-off word turned it on
    ("admission", "2"),
    ("dispatch", "fibers"),
    ("replication_factor", "two"),  # was silently 1
    ("replication_factor", "0"),
    ("trace", "verbose"),
    ("fault_rate", "2%"),  # was silently no chaos
    ("fault_rate", "1.5"),
    ("fault_rate", "-0.1"),
    ("node_down", "one"),  # was silently no chaos
    ("node_down", "-1"),
]


@pytest.mark.parametrize(
    "field,text,expected", ACCEPTED, ids=[f"{f}={t.strip()}" for f, t, _ in ACCEPTED]
)
def test_accepted_spelling(monkeypatch, field, text, expected):
    monkeypatch.setenv(KNOB[field].env, text)
    assert getattr(Config.resolve(), field) == expected
    # The kwarg goes through the same parser.
    monkeypatch.setenv(KNOB[field].env, "")
    assert getattr(Config.resolve(**{field: text}), field) == expected


@pytest.mark.parametrize("field", list(KNOB))
@pytest.mark.parametrize("text", ["", "   "])
def test_empty_means_unset(monkeypatch, field, text):
    monkeypatch.setenv(KNOB[field].env, text)
    assert getattr(Config.resolve(), field) == getattr(Config(), field)


@pytest.mark.parametrize("field,text", MALFORMED, ids=[f"{f}={t}" for f, t in MALFORMED])
def test_malformed_value_raises_naming_variable_value_and_spellings(monkeypatch, field, text):
    knob = KNOB[field]
    monkeypatch.setenv(knob.env, text)
    with pytest.raises(ConfigError) as exc:
        Config.resolve()
    message = str(exc.value)
    assert knob.env in message and repr(text) in message and knob.spellings in message
    monkeypatch.delenv(knob.env)
    with pytest.raises(ConfigError, match=f"{knob.kwarg or field}="):
        Config.resolve(**{field: text})


def test_every_field_has_one_knob():
    assert [knob.field for knob in KNOBS] == [f.name for f in dataclasses.fields(Config)]
    assert len({knob.env for knob in KNOBS}) == len(KNOBS)


def test_unknown_field_is_a_type_error():
    with pytest.raises(TypeError, match="fault_seed"):
        Config.resolve(fault_seed=7)


# ----------------------------------------------------------------------
# 2. Resolution: what connectors, clusters and engines end up with
# ----------------------------------------------------------------------
def _shared_admission():
    shared = AdmissionController()
    owner = connector(admission=shared)
    named = AdmissionController(backend="cluster-wide")
    connector(admission=named)
    # Backfilled for metrics labels, never overwritten.
    return owner.admission is shared, shared.backend, named.backend


def _cache_size(**kwargs):
    cache = connector(**kwargs).result_cache
    return None if cache is None else (cache.max_bytes, cache.backend)


def _node_down_faults():
    injector, policy = Config.resolve().chaos()
    raised = []
    for key in ("c#shard0@node0", "c#shard1@node1", "c#shard3@node3"):
        try:
            injector.before_request(key)
            raised.append(False)
        except TransientBackendError:
            raised.append(True)
    return raised, policy.max_attempts


def _explicit_policy_attempts():
    conn = connector(retry_policy=RetryPolicy(2, sleep=no_sleep))
    with pytest.raises(TransientBackendError):
        conn.send(COUNT, "t")
    return conn.send_log[-1].attempts


def _cluster_count(**kwargs):
    return cluster(**kwargs).execute("SELECT COUNT(*) FROM t x").scalar()


def _instance_dispatcher():
    dispatcher = ThreadPoolDispatcher(max_workers=2)
    return GreenplumCluster(2, dispatch=dispatcher).dispatcher is dispatcher


def _instance_cache():
    cache = ResultCache()
    return connector(cache=cache).result_cache is cache


def _fresh_tracer():
    _reset_global_tracer()
    return get_tracer() is not None


ON = (DEFAULT_MAX_BYTES, "PostgresConnector")
RESOLUTION = [
    # (row id, environment, what to build, expected value or error)
    ("admission-off-by-default", {}, lambda: connector().admission, None),
    ("admission-env-opt-in", {"REPRO_ADMISSION": "1"},
     lambda: connector().admission.backend, "PostgresConnector"),
    ("admission-env-no-is-off", {"REPRO_ADMISSION": "no"}, lambda: connector().admission, None),
    ("admission-explicit-false-beats-env", {"REPRO_ADMISSION": "1"},
     lambda: connector(admission=False).admission, None),
    ("admission-true-builds-controller", {},
     lambda: connector(admission=True).admission.backend, "PostgresConnector"),
    ("admission-shared-controller-passes-through", {"REPRO_ADMISSION": "0"},
     _shared_admission, (True, "PostgresConnector", "cluster-wide")),
    ("admission-cluster-env", {"REPRO_ADMISSION": "on"},
     lambda: GreenplumCluster(2).admission.backend, "greenplum[2]"),
    ("deadline-env", {"REPRO_DEADLINE": "2.5"}, lambda: connector().deadline, 2.5),
    ("deadline-explicit-wins", {"REPRO_DEADLINE": "2.5"},
     lambda: connector(deadline=1.5).deadline, 1.5),
    ("deadline-explicit-off-wins", {"REPRO_DEADLINE": "2.5"},
     lambda: connector(deadline=-1.0).deadline, None),
    ("deadline-env-malformed-raises", {"REPRO_DEADLINE": "garbage"}, connector, ConfigError),
    ("deadline-env-nonpositive-is-off", {"REPRO_DEADLINE": "-3"},
     lambda: connector().deadline, None),
    ("deadline-unset-is-off", {}, lambda: connector().deadline, None),
    ("replication-default-single-copy", {}, lambda: GreenplumCluster(4).replication_factor, 1),
    ("replication-env", {"REPRO_REPLICATION": "2"},
     lambda: GreenplumCluster(4).replication_factor, 2),
    ("replication-clamped-to-node-count", {"REPRO_REPLICATION": "3"},
     lambda: (GreenplumCluster(2).replication_factor,
              GreenplumCluster(3, replication_factor=5).replication_factor), (2, 3)),
    ("replication-explicit-wins", {"REPRO_REPLICATION": "3"},
     lambda: GreenplumCluster(4, replication_factor=1).replication_factor, 1),
    ("replication-env-malformed-raises", {"REPRO_REPLICATION": "two"},
     lambda: GreenplumCluster(4), ConfigError),
    ("replication-zero-raises", {}, lambda: GreenplumCluster(4, replication_factor=0), ConfigError),
    ("cache-off-by-default", {}, _cache_size, None),
    ("cache-env-on-default-size", {"REPRO_CACHE": "1"}, _cache_size, ON),
    ("cache-env-yes-is-on", {"REPRO_CACHE": "yes"}, _cache_size, ON),
    ("cache-env-sizes-budget", {"REPRO_CACHE": "64m"},
     _cache_size, (64 * MIB, "PostgresConnector")),
    ("cache-false-beats-env", {"REPRO_CACHE": "1"}, lambda: _cache_size(cache=False), None),
    ("cache-kwarg-spellings", {},
     lambda: [_cache_size(cache=value) for value in (True, 1, 0, "off", "2k", 4096)],
     [ON, ON, None, None, (2048, "PostgresConnector"), (4096, "PostgresConnector")]),
    ("cache-instance-passes-through", {"REPRO_CACHE": "0"}, _instance_cache, True),
    ("cache-negative-rejected", {}, lambda: connector(cache=-5), ConfigError),
    ("cache-malformed-rejected", {}, lambda: connector(cache="a-lot"), ConfigError),
    ("cache-cluster-env", {"REPRO_CACHE": "2k"},
     lambda: GreenplumCluster(2).result_cache.max_bytes, 2048),
    ("dispatch-default-serial", {}, lambda: GreenplumCluster(2).dispatcher.mode, "serial"),
    ("dispatch-env-threads", {"REPRO_DISPATCH": "threads"},
     lambda: GreenplumCluster(2).dispatcher.mode, "threads"),
    ("dispatch-explicit-wins", {"REPRO_DISPATCH": "threads"},
     lambda: GreenplumCluster(2, dispatch="serial").dispatcher.mode, "serial"),
    ("dispatch-instance-passes-through", {}, _instance_dispatcher, True),
    ("dispatch-unknown-rejected", {}, lambda: GreenplumCluster(2, dispatch="fibers"), ConfigError),
    ("memory-explicit-wins", {"REPRO_MEM_BUDGET": "1k"},
     lambda: (SQLDatabase(memory_budget=4096).memory_budget,
              MongoDatabase(memory_budget="2k").memory_budget), (4096, 2048)),
    ("memory-env", {"REPRO_MEM_BUDGET": "8k"},
     lambda: [SQLDatabase().memory_budget, MongoDatabase().memory_budget,
              Neo4jDatabase().memory_budget], [8192] * 3),
    ("memory-env-malformed-raises", {"REPRO_MEM_BUDGET": "plenty"}, SQLDatabase, ConfigError),
    ("memory-negative-raises", {}, lambda: SQLDatabase(memory_budget=-1), ConfigError),
    ("memory-cluster-engines", {"REPRO_MEM_BUDGET": "8k"},
     lambda: {engine.memory_budget for engine in GreenplumCluster(2).store.all_engines()},
     {8192}),
    ("exec-env-vector", {"REPRO_EXEC": "vector"},
     lambda: (SQLDatabase().exec_engine, AsterixDB().exec_engine), ("vector", "vector")),
    ("exec-explicit-wins", {"REPRO_EXEC": "vector"},
     lambda: SQLDatabase(exec_engine="row").exec_engine, "row"),
    ("exec-env-malformed-raises", {"REPRO_EXEC": "bogus"}, SQLDatabase, ConfigError),
    ("trace-env-installs-global-tracer", {"REPRO_TRACE": "yes"}, _fresh_tracer, True),
    ("trace-off-by-default", {}, _fresh_tracer, False),
    ("chaos-off-without-env", {},
     lambda: (send_attempts(connector(), 3), Config.resolve().chaos()), ([1, 1, 1], (None, None))),
    ("chaos-rate-injects-and-retries", {"REPRO_FAULT_RATE": "0.25"},
     lambda: sum(send_attempts(connector())) > 20, True),
    ("chaos-explicit-policy-wins", {"REPRO_FAULT_RATE": "1.0"}, _explicit_policy_attempts, 2),
    ("chaos-node-down-env-builds-injector", {"REPRO_NODE_DOWN": "1, 3"},
     _node_down_faults, ([False, True, True], 6)),
    ("chaos-cluster-env-node-down", {"REPRO_NODE_DOWN": "1"}, _cluster_count, ShardFailureError),
    ("chaos-cluster-explicit-injector-wins", {"REPRO_NODE_DOWN": "1"},
     lambda: _cluster_count(fault_injector=FaultInjector(sleep=no_sleep)), 8),
]


@pytest.mark.parametrize(
    "env,build,expected", [row[1:] for row in RESOLUTION], ids=[row[0] for row in RESOLUTION]
)
def test_resolution(monkeypatch, env, build, expected):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            build()
    else:
        assert build() == expected


def test_chaos_does_not_depend_on_what_ran_before(monkeypatch):
    # Each connector owns its injector and RNG: a connector built after
    # another one has drawn faults sees the faults it would see alone.
    monkeypatch.setenv("REPRO_FAULT_RATE", "0.25")
    first = send_attempts(connector())
    second = send_attempts(connector())
    assert second == first
    assert sum(first) > len(first)  # some faults were injected and retried away


def test_sends_do_not_read_the_environment(monkeypatch):
    conn = connector()
    conn.send(COUNT, "t")  # the process tracer, too, is resolved once
    monkeypatch.setenv("REPRO_DEADLINE", "garbage")
    monkeypatch.setenv("REPRO_FAULT_RATE", "1.0")
    assert conn.send(COUNT, "t").scalar() == 2
    assert conn.send_log[-1].attempts == 1


# ----------------------------------------------------------------------
# Config is a value; connector.config is live
# ----------------------------------------------------------------------
def test_config_is_a_frozen_hashable_value():
    config = Config.resolve(deadline=5, cache="2k")
    assert config == Config(deadline=5.0, cache=2048)
    assert hash(config) == hash(Config(deadline=5.0, cache=2048))
    assert len({Config(), Config.resolve(), config}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.deadline = 1.0  # type: ignore[misc]
    assert repr(Config()) == "Config()"
    assert repr(config) == "Config(cache=2048, deadline=5.0)"


def test_connector_config_reports_live_settings():
    conn = connector(deadline=5)
    assert conn.config == Config(deadline=5.0)
    conn.deadline = 30.0
    conn.admission = AdmissionController()
    conn._db.exec_engine = "vector"
    assert conn.config == Config(deadline=30.0, admission=True, exec_engine="vector")


def test_connector_config_reports_the_cluster(monkeypatch):
    monkeypatch.setenv("REPRO_DISPATCH", "threads")
    conn = PostgresConnector(GreenplumCluster(4, replication_factor=2, memory_budget="1m"))
    assert conn.config == Config(dispatch="threads", replication_factor=2, memory_budget=MIB)


def test_explain_verbose_prints_the_config():
    db = SQLDatabase()
    db.create_table("T.t")
    conn = PostgresConnector(db, deadline=5, cache=True)
    report = PolyFrame("T", "t", conn).explain(verbose=True)
    assert f"-- config -- {conn.config!r}" in report.splitlines()
    assert f"-- config -- Config(cache={DEFAULT_MAX_BYTES}, deadline=5.0)" in report


# ----------------------------------------------------------------------
# 3. The README's "Configuration" table is KNOBS
# ----------------------------------------------------------------------
def _readme_section() -> str:
    return README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]


def _default_cell(value) -> str:
    if value is None or value is False:
        return "off"
    return "none" if value == () else f"`{value}`"


def test_the_readme_table_is_the_declared_table():
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in _readme_section().splitlines()
        if line.startswith("| `REPRO_")
    ]
    defaults = Config()
    assert rows == [
        [
            f"`{knob.env}`",
            f"`{knob.kwarg}=`" if knob.kwarg else "—",
            knob.type,
            _default_cell(getattr(defaults, knob.field)),
            knob.spellings,
        ]
        for knob in KNOBS
    ]


BENCH_SIZING = ("REPRO_BENCH_XS", "REPRO_BENCH_VECTOR_ROWS")
VARIABLE_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def test_the_readme_footnote_gives_the_bench_sizing_defaults():
    section = _readme_section()
    assert "`REPRO_BENCH_XS` (3,000)" in section
    assert "`REPRO_BENCH_VECTOR_ROWS` (100,000)" in section
    assert "its `--xs` flag (2,000)" in section
    assert VARIABLE_NAME.findall(section.split("Bench sizing", 1)[1]) == list(BENCH_SIZING)


def _scanned_files() -> list[Path]:
    files = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    files.append(ROOT / ".github" / "workflows" / "ci.yml")
    for top in ("src", "tests", "benchmarks", "docs", "examples"):
        for path in sorted((ROOT / top).rglob("*")):
            parts = path.relative_to(ROOT).parts
            if path.suffix in (".py", ".md", ".yml") and parts[:2] not in (
                ("benchmarks", "perf"), ("benchmarks", "results")
            ):
                files.append(path)
    return files


def test_every_repro_name_is_a_knob_or_a_bench_sizing_variable():
    # A deleted knob cannot linger in the code, the docs or CI.
    allowed = {knob.env for knob in KNOBS} | set(BENCH_SIZING)
    found = {
        (name, str(path.relative_to(ROOT)))
        for path in _scanned_files()
        for name in VARIABLE_NAME.findall(path.read_text(encoding="utf-8"))
    }
    assert len({path for _name, path in found}) > 20  # the scan reached the tree
    assert sorted(pair for pair in found if pair[0] not in allowed) == []
