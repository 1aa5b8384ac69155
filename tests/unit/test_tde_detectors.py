"""Unit tests for the three TDE detectors."""

import pickle

import pytest

from repro.core.tde import (
    BgwriterThrottleDetector,
    MemoryThrottleDetector,
    PlannerThrottleDetector,
    checkpoint_latency_ratio,
)
from repro.dbsim import KnobClass, SimulatedDatabase
from repro.dbsim.planner import PlanColumns
from repro.tuners import TrainingSample, WorkloadRepository
from repro.workloads import AdulteratedTPCCWorkload, TPCCWorkload, YCSBWorkload


class TestMemoryDetector:
    def test_spilling_workload_raises_memory_throttle(self):
        db = SimulatedDatabase("postgres", "m4.large", 21.0, seed=1)
        detector = MemoryThrottleDetector("svc", seed=2)
        workload = AdulteratedTPCCWorkload(0.8, seed=3)
        result = db.run(workload.batch(30.0))
        report = detector.inspect(db, result)
        working_area = [
            t for t in report.throttles if not t.requires_restart
        ]
        assert working_area
        assert working_area[0].knob_class is KnobClass.MEMORY
        assert "work_mem" in working_area[0].knobs

    def test_fitting_workload_no_working_area_throttle(self):
        db = SimulatedDatabase("postgres", "m4.xlarge", 2.0, seed=1)
        db.config = db.config.with_values({"shared_buffers": 1024})
        detector = MemoryThrottleDetector("svc", seed=2)
        result = db.run(YCSBWorkload(rps=100.0, data_size_gb=2.0, seed=3).batch(30.0))
        report = detector.inspect(db, result)
        assert report.throttles == []

    def test_buffer_gauging_raises_restart_throttle(self):
        db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=1)
        detector = MemoryThrottleDetector("svc", seed=2)
        result = db.run(
            YCSBWorkload(rps=5000.0, data_size_gb=26.0, seed=3).batch(30.0)
        )
        report = detector.inspect(db, result)
        restart = [t for t in report.throttles if t.requires_restart]
        assert restart
        assert restart[0].knobs == ("shared_buffers",)

    def test_buffer_gauging_suppressed_for_write_heavy(self):
        """Bulk-ingest windows do not implicate the buffer pool."""
        db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=1)
        detector = MemoryThrottleDetector("svc", seed=2)
        result = db.run(TPCCWorkload(seed=3).batch(30.0))
        report = detector.inspect(db, result)
        assert not [t for t in report.throttles if t.requires_restart]

    def test_escalation_when_knobs_at_cap(self):
        """Undersized VM + maxed knobs + even classes ⇒ plan upgrade."""
        db = SimulatedDatabase("postgres", "t2.small", 21.0, seed=1)
        # Push the working-area knobs to everything the VM budget allows
        # (the repair scales them to exactly fill the remaining budget).
        db.config = db.config.with_values(
            {"work_mem": 4096, "maintenance_work_mem": 8192, "temp_buffers": 2048}
        ).fitted_to_budget(db.vm.db_memory_limit_mb, db.active_connections)
        detector = MemoryThrottleDetector("svc", seed=2)
        workload = AdulteratedTPCCWorkload(0.8, seed=3)
        escalated = False
        for _ in range(12):
            result = db.run(workload.batch(20.0))
            report = detector.inspect(db, result)
            if report.escalations:
                escalated = True
                break
        assert escalated

    def test_no_escalation_when_knobs_small(self):
        db = SimulatedDatabase("postgres", "m4.xlarge", 21.0, seed=1)
        detector = MemoryThrottleDetector("svc", seed=2)
        workload = AdulteratedTPCCWorkload(0.8, seed=3)
        for _ in range(12):
            result = db.run(workload.batch(20.0))
            report = detector.inspect(db, result)
            assert not report.escalations


class TestCheckpointRatio:
    def test_pressure_formula(self):
        # (checkpoint write MB / WAL MB) × latency — see the detector's
        # deviation note.
        assert checkpoint_latency_ratio(60.0, 120.0, 2.0) == pytest.approx(1.0)

    def test_zero_latency_gives_zero(self):
        assert checkpoint_latency_ratio(50.0, 60.0, 0.0) == 0.0

    def test_empty_checkpoints_are_harmless(self):
        # An idle timed checkpoint that wrote nothing scores zero.
        assert checkpoint_latency_ratio(0.0, 5.0, 20.0) == 0.0

    def test_tiny_wal_floored(self):
        # A near-idle window cannot divide by ~zero WAL.
        assert checkpoint_latency_ratio(2.0, 0.0, 2.0) == pytest.approx(4.0)

    def test_load_invariance(self):
        """Same write-back quality at 4x the load scores the same."""
        low = checkpoint_latency_ratio(20.0, 100.0, 1.5)
        high = checkpoint_latency_ratio(80.0, 400.0, 1.5)
        assert high == pytest.approx(low)


class TestBgwriterDetector:
    def _repo_with_good_baseline(self, pg_catalog):
        """Repository whose best tpcc sample checkpoints calmly."""
        from repro.dbsim.config import KnobConfiguration
        from repro.dbsim.metrics import MetricsDelta

        repo = WorkloadRepository()
        good = MetricsDelta(
            {
                "throughput_tps": 3000.0,
                "checkpoints_timed": 1.0,
                "checkpoints_requested": 0.0,
                "buffers_checkpoint_mb": 80.0,
                "disk_write_latency_ms": 6.5,
                "wal_mb": 800.0,
            }
        )
        repo.add(TrainingSample("tpcc", KnobConfiguration(pg_catalog), good))
        return repo

    def test_no_baseline_no_throttle(self, pg_db, tpcc):
        detector = BgwriterThrottleDetector("svc", WorkloadRepository())
        result = pg_db.run(tpcc.batch(30.0))
        assert detector.inspect(result) == []

    def test_bad_checkpointing_throttles(self, pg_catalog):
        repo = self._repo_with_good_baseline(pg_catalog)
        db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=4)
        # Force frantic checkpointing on the live system.
        db.config = db.config.with_values(
            {"checkpoint_timeout": 30, "max_wal_size": 64}
        )
        detector = BgwriterThrottleDetector("svc", repo)
        result = db.run(TPCCWorkload(seed=5).batch(60.0))
        throttles = detector.inspect(result)
        assert throttles
        assert throttles[0].knob_class is KnobClass.BGWRITER
        assert "checkpoint_timeout" in throttles[0].knobs

    def test_calm_checkpointing_quiet(self, pg_catalog):
        repo = self._repo_with_good_baseline(pg_catalog)
        db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=4)
        db.config = db.config.with_values(
            {"checkpoint_timeout": 3600, "max_wal_size": 16_384,
             "shared_buffers": 4096, "bgwriter_lru_maxpages": 1000,
             "bgwriter_delay": 50}
        )
        detector = BgwriterThrottleDetector("svc", repo)
        result = db.run(TPCCWorkload(rps=300.0, seed=5).batch(60.0))
        assert detector.inspect(result) == []

    def test_shared_baseline_equals_fresh_computation_at_every_version(
        self, monkeypatch
    ):
        """A fleet run's detectors share one baseline per repository
        version and workload, equal to a detector's own computation on an
        uncached copy of the repository."""
        from repro.core.tde import bgwriter_detector
        from repro.experiments import fig09_requests_per_minute as fig09

        shared = bgwriter_detector.BgwriterThrottleDetector.baseline_for
        compute = bgwriter_detector.BgwriterThrottleDetector._compute_baseline
        computed: list[tuple[int, int, str]] = []
        checked: dict[tuple[int, int, str], object] = {}

        def counted(self, workload_id):
            computed.append((id(self.repository), self.repository.version, workload_id))
            return compute(self, workload_id)

        def checked_baseline(self, workload_id):
            got = shared(self, workload_id)
            key = (id(self.repository), self.repository.version, workload_id)
            if key not in checked:
                fresh = pickle.loads(pickle.dumps(self.repository))
                fresh.derived_cache.clear()
                checked[key] = compute(
                    BgwriterThrottleDetector("fresh", fresh), workload_id
                )
            assert got == checked[key]
            return got

        monkeypatch.setattr(
            bgwriter_detector.BgwriterThrottleDetector, "_compute_baseline", counted
        )
        monkeypatch.setattr(
            bgwriter_detector.BgwriterThrottleDetector, "baseline_for", checked_baseline
        )
        fig09.run(fleet_size=4, hours=1.0, warmup_hours=0.5, seed=3)
        assert len(checked) > 10
        assert any(baseline is not None for baseline in checked.values())
        # Once per repository version and workload, however many members.
        assert sorted(computed) == sorted(checked)


class TestPlannerDetector:
    def test_probe_finds_profit_away_from_optimum(self):
        db = SimulatedDatabase("postgres", "m4.large", 20.0, seed=6)
        detector = PlannerThrottleDetector.for_database("svc", db, seed=7)
        workload = TPCCWorkload(seed=8)
        result = db.run(workload.batch(30.0))
        throttled = []
        for _ in range(8):
            throttled.extend(detector.inspect(db, result))
        assert throttled
        assert throttled[0].knob_class is KnobClass.ASYNC_PLANNER

    def test_no_queries_no_probe(self):
        db = SimulatedDatabase("postgres", "m4.large", 20.0, seed=6)
        detector = PlannerThrottleDetector.for_database("svc", db, seed=7)
        assert detector.probe(db, PlanColumns.of_queries([])) == []

    def test_probes_leave_only_the_live_config_in_the_planner_memos(self):
        db = SimulatedDatabase("postgres", "m4.large", 20.0, seed=6)
        detector = PlannerThrottleDetector.for_database("svc", db, seed=7)
        result = db.run(TPCCWorkload(seed=8).batch(30.0))
        planner = db._planner
        for _ in range(50):  # each round probes every async/planner knob
            detector.inspect(db, result)
        live = {db.config}
        assert set(planner._distance_cache) <= live
        assert set(planner._allowance_cache) <= live
        assert {key[0] for key in planner._multiplier_cache} <= live
        keys = {
            (f.footprint.planner_sensitivity, f.footprint.parallel_fraction)
            for f in result.batch.sampled_queries.families
        }
        assert len(planner._multiplier_cache) <= len(keys)

    def test_episode_shape(self):
        db = SimulatedDatabase("postgres", "m4.large", 20.0, seed=6)
        detector = PlannerThrottleDetector.for_database("svc", db, seed=7)
        queries = TPCCWorkload(seed=8).batch(10.0).sampled_queries[:16]
        episode = detector.run_episode(db, queries, steps=60)
        # Knobs park once converged, so probing may stop early.
        assert 0 < episode.steps <= 60
        assert 0.0 <= episode.accuracy <= 1.0

    def test_learning_improves_accuracy(self):
        """Fig. 6: later episodes reward more often than the first."""
        db = SimulatedDatabase("postgres", "m4.large", 20.0, seed=6)
        detector = PlannerThrottleDetector.for_database("svc", db, seed=7)
        queries = TPCCWorkload(seed=8).batch(10.0).sampled_queries[:16]
        first = detector.run_episode(db, queries, steps=150)
        for _ in range(2):
            detector.run_episode(db, queries, steps=150)
        last = detector.run_episode(db, queries, steps=150)
        assert last.accuracy >= first.accuracy

    def test_empty_episode_rejected(self):
        db = SimulatedDatabase("postgres", "m4.large", 20.0, seed=6)
        detector = PlannerThrottleDetector.for_database("svc", db, seed=7)
        with pytest.raises(ValueError):
            detector.run_episode(db, [], steps=10)
