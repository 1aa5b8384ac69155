"""Unit tests for the BO-style tuner."""

import copy
import pickle

import pytest

from repro.dbsim import SimulatedDatabase
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.metrics import MetricsDelta
from repro.tuners import (
    OtterTuneTuner,
    TrainingSample,
    TuningRequest,
    WorkloadRepository,
)


def _request(pg_catalog, wid="tpcc"):
    return TuningRequest(
        "svc-1",
        wid,
        KnobConfiguration(pg_catalog),
        MetricsDelta({"throughput_tps": 100.0}),
    )


class TestColdStart:
    def test_cold_start_returns_nudged_config(self, pg_catalog):
        tuner = OtterTuneTuner(pg_catalog, WorkloadRepository(), seed=0)
        rec = tuner.recommend(_request(pg_catalog))
        assert rec.source == "ottertune"
        assert rec.config.catalog.flavor == "postgres"

    def test_cold_start_respects_budget(self, pg_catalog):
        tuner = OtterTuneTuner(
            pg_catalog, WorkloadRepository(), memory_limit_mb=2000.0, seed=0
        )
        rec = tuner.recommend(_request(pg_catalog))
        rec.config.check_memory_budget(2000.0 * 1.01, 20)


class TestTrainedRecommendation:
    def test_improves_over_default(self, pg_catalog, trained_repo):
        db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=21)
        tuner = OtterTuneTuner(
            pg_catalog,
            trained_repo,
            memory_limit_mb=db.vm.db_memory_limit_mb,
            seed=5,
        )
        rec = tuner.recommend(_request(pg_catalog))
        from repro.workloads import TPCCWorkload

        default_r = db.run(TPCCWorkload(seed=22).batch(20.0))
        # Apply via restart: clean shutdown checkpoints the backlog, then
        # measure the second window (first one pays the restart downtime).
        db.apply_config(rec.config, mode="restart")
        db.run(TPCCWorkload(seed=22).batch(20.0))
        tuned_r = db.run(TPCCWorkload(seed=22).batch(20.0))
        assert tuned_r.throughput > default_r.throughput * 2

    def test_recommendation_within_budget(self, pg_catalog, trained_repo):
        tuner = OtterTuneTuner(
            pg_catalog, trained_repo, memory_limit_mb=6553.0, seed=5
        )
        rec = tuner.recommend(_request(pg_catalog))
        rec.config.check_memory_budget(6553.0 * 1.01, 20)

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda rec: pickle.loads(pickle.dumps(rec))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_equal(self, pg_catalog, trained_repo, clone):
        tuner = OtterTuneTuner(pg_catalog, trained_repo, seed=5)
        rec = tuner.recommend(_request(pg_catalog))
        assert clone(rec) == rec

    def test_mapping_recorded(self, pg_catalog, trained_repo):
        from tests.conftest import make_samples

        trained_repo.add_many(
            make_samples(pg_catalog, "tpcc", n=6, seed=9)
        )
        for s in make_samples(pg_catalog, "tpcc", n=6, seed=10):
            trained_repo.add(
                TrainingSample("tpcc_live", s.config, s.metrics)
            )
        tuner = OtterTuneTuner(pg_catalog, trained_repo, seed=5)
        tuner.recommend(_request(pg_catalog, wid="tpcc_live"))
        assert tuner._mapper.map_workload("tpcc_live").best_workload_id == "tpcc"


class TestCostModel:
    def test_cost_grows_with_samples(self, pg_catalog):
        repo = WorkloadRepository()
        tuner = OtterTuneTuner(pg_catalog, repo, seed=0)
        empty_cost = tuner.recommendation_cost_s()
        from tests.conftest import make_samples

        repo.add_many(make_samples(pg_catalog, "tpcc", n=10, seed=1))
        assert tuner.recommendation_cost_s() > empty_cost

    def test_paper_scale_costs_hundreds_of_seconds(self, pg_catalog):
        """§1/§5: at ~2000 samples a recommendation costs ~200 s."""
        tuner = OtterTuneTuner(pg_catalog, WorkloadRepository(), seed=0)
        tuner._last_train_size = 2000
        cost = tuner.recommendation_cost_s()
        assert 150.0 < cost < 260.0


class TestObserve:
    def test_observe_stores_in_repository(self, pg_catalog):
        repo = WorkloadRepository()
        tuner = OtterTuneTuner(pg_catalog, repo, seed=0)
        tuner.observe(
            TrainingSample(
                "w", KnobConfiguration(pg_catalog), MetricsDelta({})
            )
        )
        assert repo.total_samples() == 1
