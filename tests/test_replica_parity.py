"""Satellite: failover and hedging never change answers.

Runs all 13 Table III expressions on every sharded backend under three
scenarios — healthy, permanent node outage (failover), and a slow node
(hedged execution) — and asserts the results are byte-identical.  The
replication layer may move reads between replicas, but a query's answer
must not depend on which copy served it.
"""

from __future__ import annotations

import pytest

from repro.bench.expressions import EXPRESSIONS, DataFrameAPI, benchmark_params
from repro.bench.systems import build_cluster_systems
from repro.cluster.replica import HedgePolicy
from repro.errors import UnsupportedOperationError
from repro.resilience import FaultInjector, RetryPolicy, no_sleep

NUM_NODES = 3
NUM_RECORDS = 150

SCENARIOS = ("healthy", "node_down", "hedged")


def canonical(value):
    """Byte-comparable form of an expression result."""
    value = DataFrameAPI().materialize(value)
    if hasattr(value, "to_records"):
        return repr(value.to_records())
    return repr(value)


def run_scenario(scenario: str) -> tuple[dict, dict]:
    injector = FaultInjector(sleep=no_sleep)
    # The default hedge policy is adaptive: it reads a wall-clock latency
    # EWMA, so a scheduling hiccup could hedge a perfectly healthy run.
    # Only the `hedged` scenario wants hedges, from a fixed threshold.
    hedge = HedgePolicy(enabled=False)
    if scenario == "node_down":
        injector.node_down(1)
    elif scenario == "hedged":
        injector.slow_node(1, 0.5)
        hedge = HedgePolicy(threshold_seconds=0.01)
    systems = build_cluster_systems(
        NUM_NODES,
        NUM_RECORDS,
        replication_factor=2,
        fault_injector=injector,
        retry_policy=RetryPolicy(3, sleep=no_sleep),
        hedge=hedge,
    )
    params = benchmark_params()
    api = DataFrameAPI()
    answers: dict[tuple[str, int], str] = {}
    activity: dict[str, tuple[int, int]] = {}
    for name, system in systems.items():
        df, df2 = system.create_frames()
        for expr in EXPRESSIONS:
            try:
                answers[(name, expr.id)] = canonical(expr.run(df, df2, params, api))
            except UnsupportedOperationError:
                answers[(name, expr.id)] = "unsupported"
        failovers = sum(r.failovers for r in system.connector.send_log)
        hedges = sum(r.hedges for r in system.connector.send_log)
        activity[name] = (failovers, hedges)
    return answers, activity


@pytest.fixture(scope="module")
def scenario_answers():
    return {scenario: run_scenario(scenario) for scenario in SCENARIOS}


def test_failover_answers_match_healthy(scenario_answers):
    healthy, _ = scenario_answers["healthy"]
    chaos, activity = scenario_answers["node_down"]
    assert chaos == healthy
    # And it wasn't vacuous: every backend actually failed over.
    for name, (failovers, _) in activity.items():
        assert failovers >= 1, f"{name} never failed over"


def test_hedged_answers_match_healthy(scenario_answers):
    healthy, _ = scenario_answers["healthy"]
    hedged, activity = scenario_answers["hedged"]
    assert hedged == healthy
    for name, (_, hedges) in activity.items():
        assert hedges >= 1, f"{name} never hedged"


def test_healthy_run_answers_every_expression(scenario_answers):
    healthy, activity = scenario_answers["healthy"]
    # The only unsupported cell is the sharded-MongoDB join (expression 12).
    unsupported = {k for k, v in healthy.items() if v == "unsupported"}
    assert unsupported == {("PolyFrame-MongoDB", 12)}
    for name, (failovers, hedges) in activity.items():
        assert failovers == 0 and hedges == 0, f"{name} moved reads while healthy"
