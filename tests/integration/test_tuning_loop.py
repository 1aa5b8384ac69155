"""Integration tests: tuners driving real simulated databases."""

import numpy as np

from repro.dbsim import SimulatedDatabase
from repro.tuners import (
    CDBTuneTuner,
    OtterTuneTuner,
    TrainingSample,
    TuningRequest,
    WorkloadRepository,
)
from repro.workloads import TPCCWorkload
from tests.conftest import make_samples


class TestOtterTuneLoop:
    def test_iterative_tuning_converges_upward(self, pg_catalog):
        """Closed loop: recommend → apply (restart) → observe → repeat."""
        repo = WorkloadRepository()
        repo.add_many(make_samples(pg_catalog, "tpcc", n=10, seed=1))
        db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=2)
        tuner = OtterTuneTuner(
            pg_catalog, repo, memory_limit_mb=db.vm.db_memory_limit_mb, seed=3
        )
        workload = TPCCWorkload(seed=4)
        first = db.run(workload.batch(20.0)).throughput
        last = first
        for _ in range(4):
            result = db.run(workload.batch(20.0))
            request = TuningRequest("svc", "tpcc", db.config, result.metrics)
            tuner.observe(
                TrainingSample("tpcc", db.config, result.metrics, db.clock_s)
            )
            rec = tuner.recommend(request)
            db.apply_config(rec.config, mode="restart")
            # Absorb the restart downtime and the cold-cache warm-up.
            db.run(workload.batch(20.0))
            db.run(workload.batch(20.0))
            last = db.run(workload.batch(20.0)).throughput
        assert last > first * 3

    def test_low_quality_samples_corrupt_workload_mapping(self, pg_catalog):
        """§2.1 / Fig. 12's causal chain: a live DB whose samples are
        flat idle-window junk maps onto *other production systems'* junk
        instead of the clean offline workloads, so the surrogate trains on
        noise and its objective view goes flat. The TDE-gated variant
        (throttle-time samples only) maps to the offline benchmark."""
        from repro.dbsim.config import KnobConfiguration
        from repro.dbsim.metrics import MetricsDelta
        from repro.tuners import vector_to_config

        rng = np.random.default_rng(5)

        def junk_sample(wid: str) -> TrainingSample:
            config = vector_to_config(
                rng.uniform(0, 1, len(pg_catalog)), pg_catalog
            ).fitted_to_budget(6553.6, 20)
            return TrainingSample(
                wid,
                config,
                MetricsDelta(
                    {
                        "throughput_tps": float(rng.uniform(1, 3)),
                        "xact_commit": float(rng.uniform(20, 60)),
                        "avg_latency_ms": float(rng.uniform(0.5, 1.5)),
                    }
                ),
            )

        def build_repo(target_junk: bool) -> WorkloadRepository:
            repo = WorkloadRepository()
            repo.add_many(make_samples(pg_catalog, "tpcc", n=12, seed=1))
            for wid in ("live1", "live2"):
                for _ in range(20):
                    repo.add(junk_sample(wid))
            if target_junk:
                for _ in range(10):
                    repo.add(junk_sample("live40"))
            else:
                repo.add_many(
                    [
                        TrainingSample("live40", s.config, s.metrics)
                        for s in make_samples(pg_catalog, "tpcc", n=6, seed=2)
                    ]
                )
            return repo

        request = TuningRequest(
            "svc", "live40", KnobConfiguration(pg_catalog), MetricsDelta({})
        )

        clean_tuner = OtterTuneTuner(
            pg_catalog, build_repo(target_junk=False),
            memory_limit_mb=6553.6, seed=3,
        )
        clean_tuner.recommend(request)
        clean_mapped = clean_tuner._mapper.map_workload("live40").best_workload_id
        assert clean_mapped == "tpcc"

        corrupt_tuner = OtterTuneTuner(
            pg_catalog, build_repo(target_junk=True),
            memory_limit_mb=6553.6, seed=3,
        )
        corrupt_tuner.recommend(request)
        corrupt_mapped = corrupt_tuner._mapper.map_workload("live40").best_workload_id
        assert corrupt_mapped in ("live1", "live2")

        # The corrupted pipeline trains on raw objectives with (almost) no
        # signal, while the gated one trains on genuinely varied ones.
        corrupt_sources = [
            corrupt_mapped, "live40"
        ]
        corrupt_raw = np.concatenate(
            [
                corrupt_tuner.repository.dataset(wid).objective
                for wid in corrupt_sources
            ]
        )
        clean_raw = np.concatenate(
            [
                clean_tuner.repository.dataset(wid).objective
                for wid in (clean_mapped, "live40")
            ]
        )
        assert corrupt_raw.max() - corrupt_raw.min() < 10.0
        assert clean_raw.max() - clean_raw.min() > 50.0


class TestCDBTuneLoop:
    def test_try_and_error_keeps_exploring(self, pg_catalog):
        """RL tuner explores many distinct configurations (§2.1)."""
        tuner = CDBTuneTuner(pg_catalog, memory_limit_mb=6553.6, seed=1)
        db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=2)
        workload = TPCCWorkload(seed=3)
        seen = set()
        for _ in range(15):
            result = db.run(workload.batch(15.0))
            tuner.observe(TrainingSample("tpcc", db.config, result.metrics))
            rec = tuner.recommend(
                TuningRequest("svc", "tpcc", db.config, result.metrics)
            )
            seen.add(round(rec.config["work_mem"], 2))
            db.apply_config(rec.config, mode="restart")
        assert len(seen) >= 10

    def test_rewards_reflect_environment(self, pg_catalog):
        tuner = CDBTuneTuner(pg_catalog, memory_limit_mb=6553.6, seed=1)
        db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=2)
        workload = TPCCWorkload(seed=3)
        for _ in range(10):
            result = db.run(workload.batch(15.0))
            tuner.observe(TrainingSample("tpcc", db.config, result.metrics))
            rec = tuner.recommend(
                TuningRequest("svc", "tpcc", db.config, result.metrics)
            )
            db.apply_config(rec.config, mode="restart")
        assert len(tuner._replay) == 9
        assert any(t.reward != 0 for t in tuner._replay)
