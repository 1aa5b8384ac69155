"""Unit tests for the RL-style tuner."""

import numpy as np
import pytest

from repro.dbsim.config import KnobConfiguration
from repro.dbsim.metrics import METRIC_NAMES, MetricsDelta
from repro.tuners import CDBTuneTuner, TrainingSample, TuningRequest
from repro.tuners.cdbtune import cdbtune_reward


class TestReward:
    def test_positive_when_beating_initial(self):
        assert cdbtune_reward(120.0, 100.0, 110.0) > 0

    def test_negative_when_below_initial(self):
        assert cdbtune_reward(80.0, 100.0, 90.0) < 0

    def test_zero_at_initial(self):
        assert cdbtune_reward(100.0, 100.0, 100.0) == pytest.approx(0.0)

    def test_scales_with_improvement(self):
        small = cdbtune_reward(105.0, 100.0, 100.0)
        big = cdbtune_reward(150.0, 100.0, 100.0)
        assert big > small > 0

    def test_handles_zero_baselines(self):
        assert np.isfinite(cdbtune_reward(10.0, 0.0, 0.0))


def _sample(pg_catalog, tps, wid="w"):
    return TrainingSample(
        wid, KnobConfiguration(pg_catalog), MetricsDelta({"throughput_tps": tps})
    )


def _request(pg_catalog, tps=100.0, wid="w"):
    return TuningRequest(
        "svc",
        wid,
        KnobConfiguration(pg_catalog),
        MetricsDelta({"throughput_tps": tps}),
    )


class TestRecommend:
    def test_action_maps_to_valid_config(self, pg_catalog):
        tuner = CDBTuneTuner(pg_catalog, seed=0)
        rec = tuner.recommend(_request(pg_catalog))
        for knob in pg_catalog:
            assert knob.min_value <= rec.config[knob.name] <= knob.max_value

    def test_budget_repair_applied(self, pg_catalog):
        tuner = CDBTuneTuner(pg_catalog, memory_limit_mb=2000.0, seed=0)
        rec = tuner.recommend(_request(pg_catalog))
        rec.config.check_memory_budget(2000.0 * 1.01, 20)

    def test_exploration_decays(self, pg_catalog):
        tuner = CDBTuneTuner(pg_catalog, seed=0)
        before = tuner.exploration_sigma
        tuner.recommend(_request(pg_catalog))
        assert tuner.exploration_sigma < before

    def test_recommendation_cost_constant(self, pg_catalog):
        tuner = CDBTuneTuner(pg_catalog, seed=0)
        assert tuner.recommendation_cost_s() == 1.0


class TestLearningLoop:
    def test_observe_then_recommend_builds_transitions(self, pg_catalog):
        tuner = CDBTuneTuner(pg_catalog, seed=0)
        tuner.observe(_sample(pg_catalog, 100.0))
        tuner.recommend(_request(pg_catalog, 100.0))
        tuner.observe(_sample(pg_catalog, 120.0))
        (transition,) = tuner._replay
        assert transition.reward > 0

    def test_reward_sign_tracks_throughput(self, pg_catalog):
        tuner = CDBTuneTuner(pg_catalog, seed=0)
        tuner.observe(_sample(pg_catalog, 100.0))
        tuner.recommend(_request(pg_catalog, 100.0))
        tuner.observe(_sample(pg_catalog, 50.0))
        assert tuner._replay[-1].reward < 0

    def test_workloads_tracked_independently(self, pg_catalog):
        tuner = CDBTuneTuner(pg_catalog, seed=0)
        tuner.observe(_sample(pg_catalog, 100.0, wid="a"))
        tuner.observe(_sample(pg_catalog, 10.0, wid="b"))
        tuner.recommend(_request(pg_catalog, 100.0, wid="a"))
        tuner.recommend(_request(pg_catalog, 10.0, wid="b"))
        tuner.observe(_sample(pg_catalog, 120.0, wid="a"))
        tuner.observe(_sample(pg_catalog, 12.0, wid="b"))
        assert len(tuner._replay) == 2
        assert all(t.reward > 0 for t in tuner._replay)

    def test_no_transition_without_pending_action(self, pg_catalog):
        tuner = CDBTuneTuner(pg_catalog, seed=0)
        tuner.observe(_sample(pg_catalog, 100.0))
        tuner.observe(_sample(pg_catalog, 110.0))
        assert len(tuner._replay) == 0

    def test_training_step_changes_actor(self, pg_catalog):
        tuner = CDBTuneTuner(pg_catalog, batch_size=4, seed=0)
        state_probe = np.zeros((1, len(METRIC_NAMES)))
        before = tuner.actor(state_probe).copy()
        tps = 100.0
        for i in range(12):
            tuner.observe(_sample(pg_catalog, tps))
            tuner.recommend(_request(pg_catalog, tps))
            tps *= 1.05
        after = tuner.actor(state_probe)
        assert not np.allclose(before, after)
