"""Span-tree shape tests for the cross-layer trace instrumentation.

Every Table III expression, on every backend, must produce root ``action``
spans whose children tell the whole story: plan compilation, resilient
dispatch (one ``attempt`` child per execution try), and engine execution
with per-operator timing.  See ``docs/observability.md``.
"""

from __future__ import annotations

import pytest

from repro import (
    AsterixDBConnector,
    MongoDBConnector,
    Neo4jConnector,
    PolyFrame,
    PostgresConnector,
)
from repro.bench.expressions import EXPRESSIONS, DataFrameAPI, benchmark_params
from repro.obs import NOOP_SPAN, Tracer, get_tracer, set_global_tracer
from repro.obs.trace import _reset_global_tracer
from repro.resilience import FaultInjector, RetryPolicy

BACKENDS = ("asterixdb", "postgres", "mongodb", "neo4j")


def fresh_connector(backend: str, request, **resilience):
    """A new connector (own tracer, logs, cache) over the session engine."""
    db = request.getfixturevalue(backend)
    cls = {
        "asterixdb": AsterixDBConnector,
        "postgres": PostgresConnector,
        "mongodb": MongoDBConnector,
        "neo4j": Neo4jConnector,
    }[backend]
    return cls(db, **resilience)


def traced_frames(backend: str, request, **resilience):
    connector = fresh_connector(backend, request, **resilience)
    tracer = Tracer()
    connector.set_tracer(tracer)
    df = PolyFrame("Bench", "data", connector)
    df2 = PolyFrame("Bench", "data2", connector)
    return tracer, df, df2


def assert_action_tree(root, *, backend_name: str) -> None:
    """One action span: compile -> dispatch -> attempt -> execute."""
    assert root.name == "action"
    assert root.attributes["backend"] == backend_name
    assert "op" in root.attributes
    compiles = root.find("compile")
    dispatches = root.find("dispatch")
    assert compiles, f"action {root.attributes} has no compile span"
    assert dispatches, f"action {root.attributes} has no dispatch span"
    for compile_span in compiles:
        assert "cache_hit" in compile_span.attributes
    for dispatch in dispatches:
        attempts = dispatch.find("attempt")
        assert attempts, "dispatch span has no attempt children"
        assert dispatch.attributes["outcome"] in ("ok", "partial")
        assert dispatch.attributes["attempts"] == len(attempts)
        # The successful (last) attempt ran the engine.
        executes = attempts[-1].find("execute")
        assert len(executes) == 1
        for execute in executes:
            assert execute.attributes["rows"] >= 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_expressions_produce_action_span_trees(backend, request):
    """All 13 Table III expressions trace end-to-end on every backend."""
    tracer, df, df2 = traced_frames(backend, request)
    params = benchmark_params()
    api = DataFrameAPI()
    assert len(EXPRESSIONS) == 13
    for expr in EXPRESSIONS:
        mark = len(tracer.spans)
        expr.run(df, df2, params, api)
        roots = tracer.spans[mark:]
        assert roots, f"expression {expr.id} recorded no spans on {backend}"
        for root in roots:
            assert_action_tree(root, backend_name=df.connector.name)


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_query_action_has_exactly_one_root(backend, request):
    """A one-query action records exactly one root span, nothing stray."""
    tracer, df, _ = traced_frames(backend, request)
    len(df)
    assert len(tracer.spans) == 1
    root = tracer.spans[0]
    assert root.attributes["op"] == "len"
    assert len(root.find("dispatch")) == 1
    assert root.duration_ms >= sum(c.duration_ms for c in root.find("dispatch"))


def test_operator_spans_ride_under_execute(request):
    """Engine operators appear as synthetic spans below the execute span."""
    tracer, df, _ = traced_frames("postgres", request)
    df[df["ten"] < 5].head()
    (root,) = tracer.spans
    execute = root.find("dispatch")[0].find("attempt")[0].find("execute")[0]
    operators = [s for s in execute.walk() if s.attributes.get("kind") == "operator"]
    assert operators, "no operator spans attached to the execute span"
    for op in operators:
        assert op.attributes["rows_out"] >= 0
        assert op.duration_ms >= 0.0


def test_retries_appear_as_attempt_child_spans(request, postgres):
    """Seeded faults: each retry is a visible attempt span with its error."""
    injector = FaultInjector(seed=11)
    injector.fail_first(2, backend="PostgresConnector")
    connector = PostgresConnector(
        postgres,
        retry_policy=RetryPolicy(max_attempts=3, seed=11, sleep=lambda s: None),
        fault_injector=injector,
    )
    tracer = Tracer()
    connector.set_tracer(tracer)
    df = PolyFrame("Bench", "data", connector)
    assert len(df) == 600
    (root,) = tracer.spans
    (dispatch,) = root.find("dispatch")
    attempts = dispatch.find("attempt")
    assert [a.attributes["number"] for a in attempts] == [1, 2, 3]
    for failed in attempts[:2]:
        assert failed.attributes["retried"] is True
        assert "TransientBackendError" in failed.attributes["error"]
        assert not failed.find("execute")
    assert attempts[2].find("execute")
    assert dispatch.attributes["outcome"] == "ok"
    assert dispatch.attributes["attempts"] == 3


def test_connector_tracer_wins_over_global(request, postgres):
    connector = PostgresConnector(postgres)
    mine = Tracer()
    other = Tracer()
    connector.set_tracer(mine)
    set_global_tracer(other)
    try:
        PolyFrame("Bench", "data", connector).head(3)
    finally:
        set_global_tracer(None)
        _reset_global_tracer()
    assert mine.spans and not other.spans


def test_disabled_tracing_records_nothing(request, postgres, monkeypatch):
    """No tracer configured: the action path emits zero spans."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    set_global_tracer(None)
    try:
        assert get_tracer() is None
        connector = PostgresConnector(postgres)
        assert connector.tracer is None
        df = PolyFrame("Bench", "data", connector)
        assert len(df[df["ten"] < 5].head(3)) == 3
    finally:
        _reset_global_tracer()


def test_disabled_tracer_hands_out_noop_span(request, postgres):
    tracer = Tracer(enabled=False)
    assert tracer.span("anything") is NOOP_SPAN
    connector = PostgresConnector(postgres)
    connector.set_tracer(tracer)
    PolyFrame("Bench", "data", connector).head(2)
    assert tracer.spans == []


@pytest.mark.parametrize("mode", ["serial", "threads"])
def test_cluster_shard_spans_nest_under_attempt(mode):
    """Shard spans stay nested under the action tree in both dispatch modes.

    The span stack is thread-local, so without context propagation the
    thread dispatcher's shard spans would surface as stray roots instead
    of children of the connector's attempt span.  The cluster and the
    connector get their own rule-less injectors: a fault drawn from the
    process-wide one under the chaos env would add a second attempt.
    """
    from repro.cluster import GreenplumCluster
    from repro.wisconsin import wisconsin_records

    cluster = GreenplumCluster(
        4, query_prep_overhead=0.0, dispatch=mode, fault_injector=FaultInjector()
    )
    cluster.create_table("B.data", primary_key="unique2")
    cluster.insert("B.data", wisconsin_records(80), shard_key="unique1")
    connector = PostgresConnector(cluster, fault_injector=FaultInjector())
    tracer = Tracer()
    connector.set_tracer(tracer)
    df = PolyFrame("B", "data", connector)
    assert len(df) == 80
    assert len(tracer.spans) == 1, "worker threads leaked stray root spans"
    (root,) = tracer.spans
    (dispatch,) = root.find("dispatch")
    assert dispatch.attributes["dispatch_mode"] == mode
    (attempt,) = dispatch.find("attempt")
    shards = attempt.find("shard")
    assert sorted(s.attributes["shard"] for s in shards) == [0, 1, 2, 3]
    for shard in shards:
        (execute,) = shard.find("execute")
        assert execute.attributes["rows"] >= 0
