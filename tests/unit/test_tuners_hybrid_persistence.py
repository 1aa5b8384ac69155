"""Unit tests for the hybrid tuner."""

import pytest

from repro.dbsim.config import KnobConfiguration
from repro.dbsim.metrics import MetricsDelta
from repro.tuners import (
    HybridTuner,
    TrainingSample,
    TuningRequest,
    WorkloadRepository,
)


def _request(pg_catalog, wid="w"):
    return TuningRequest(
        "svc", wid, KnobConfiguration(pg_catalog), MetricsDelta({})
    )


class TestHybridTuner:
    def test_routes_bo_first_then_rl(self, pg_catalog, trained_repo):
        tuner = HybridTuner(pg_catalog, trained_repo, bo_every=3, seed=0)
        sources = [
            tuner.recommend(_request(pg_catalog, wid="tpcc")).source for _ in range(6)
        ]
        assert sources == ["hybrid/ottertune", "hybrid/cdbtune", "hybrid/cdbtune"] * 2

    def test_workloads_counted_independently(self, pg_catalog, trained_repo):
        tuner = HybridTuner(pg_catalog, trained_repo, bo_every=2, seed=0)
        rec = tuner.recommend(_request(pg_catalog, wid="a"))
        assert rec.source == "hybrid/ottertune"
        rec = tuner.recommend(_request(pg_catalog, wid="b"))
        assert rec.source == "hybrid/ottertune"

    def test_observe_feeds_both_members(self, pg_catalog):
        tuner = HybridTuner(pg_catalog, WorkloadRepository(), seed=0)
        sample = TrainingSample(
            "w", KnobConfiguration(pg_catalog), MetricsDelta({})
        )
        tuner.observe(sample)
        assert tuner.repository.total_samples() == 1
        assert "w" in tuner.rl._initial_tps

    def test_amortised_cost_between_members(self, pg_catalog, trained_repo):
        tuner = HybridTuner(pg_catalog, trained_repo, bo_every=4, seed=0)
        cost = tuner.recommendation_cost_s()
        assert tuner.rl.recommendation_cost_s() < cost
        assert cost < tuner.bo.recommendation_cost_s()

    def test_bo_every_validation(self, pg_catalog):
        with pytest.raises(ValueError):
            HybridTuner(pg_catalog, bo_every=0)

