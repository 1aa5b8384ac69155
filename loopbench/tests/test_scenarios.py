"""Short landscape reps: the checks run, and tracing changes no output."""

import pytest

from loopbench.run import PER_LAYER
from loopbench.scenarios import LANDSCAPE_SIZE, digest, run_landscape

#: Timed windows: the shortest rep that still reaches the first
#: scheduled downtime (window 23).
WINDOWS = 12


def test_periodic_requests_every_member_window():
    rep = run_landscape("periodic", 1, WINDOWS, "counted")
    assert rep.requests == rep.member_windows == LANDSCAPE_SIZE * WINDOWS
    assert rep.downtimes >= LANDSCAPE_SIZE
    assert rep.failed == 0
    assert len(rep.window_ms) == len(rep.window_cal_ms) == WINDOWS


def test_traced_governed_rep_matches_untraced_and_closes():
    counted = run_landscape("tde", 2, WINDOWS, "counted")
    traced = run_landscape("tde", 2, WINDOWS, "traced")
    assert digest(traced.outputs) == digest(counted.outputs)
    assert traced.ledger is not None
    assert traced.ledger.closure_error() < 0.01
    assert set(traced.layer_metrics) | {"trace.overhead_ratio"} == set(PER_LAYER)
    layers = {layer for layer, _ in traced.ledger.ranked()}
    assert {"workloads", "dbsim", "core.tde", "tuners", "core.apply"} <= layers
    assert "loopbench" not in layers
    assert traced.layer_metrics["core.apply.downtimes"] >= LANDSCAPE_SIZE
    assert traced.layer_metrics["dbsim.run_ms_per_call"] > 0
    assert all(s.instance is not None for s in traced.spans)
    # Every span of an instance's member-window names that instance.
    routes = [s for s in traced.spans if s.name == "tuners.recommend"]
    assert routes and all(s.instance.startswith("svc-") for s in routes)
    assert traced.member_windows == counted.member_windows


@pytest.mark.parametrize("policy", ["sometimes"])
def test_unknown_policy_is_refused(policy):
    with pytest.raises(ValueError, match="unknown policy"):
        run_landscape(policy, 1, WINDOWS, "counted")
