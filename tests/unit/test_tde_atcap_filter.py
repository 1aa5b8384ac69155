"""Unit tests for the §3.1 at-cap rule filter in the memory detector."""

from repro.core.tde import MemoryThrottleDetector
from repro.dbsim import SimulatedDatabase
from repro.workloads import AdulteratedTPCCWorkload


def _undersized_db():
    """t2.small whose budget cannot cover the adulterated demands."""
    db = SimulatedDatabase("postgres", "t2.small", 21.0, seed=1)
    db.config = db.config.with_values(
        {"work_mem": 4096, "maintenance_work_mem": 8192, "temp_buffers": 2048}
    ).fitted_to_budget(db.vm.db_memory_limit_mb, db.active_connections)
    return db


class TestAtCapFilter:
    def test_capped_throttles_filtered_not_fired(self):
        db = _undersized_db()
        detector = MemoryThrottleDetector("svc", seed=2)
        workload = AdulteratedTPCCWorkload(0.8, data_size_gb=21.0, seed=3)
        filtered = 0
        working_area_throttles = 0
        for _ in range(10):
            result = db.run(workload.batch(30.0, start_time_s=db.clock_s))
            report = detector.inspect(db, result)
            # A spill round that neither throttles nor escalates was filtered.
            filtered += bool(detector._spills(db)) and not report.escalations
            working_area_throttles += sum(
                1 for t in report.throttles if not t.requires_restart
            )
        # Every spill round is suppressed (rule filter or escalation):
        # a tuning request cannot raise knobs that are already at cap.
        assert filtered > 0
        assert working_area_throttles == 0

    def test_uncapped_knobs_still_throttle(self):
        db = SimulatedDatabase("postgres", "m4.xlarge", 21.0, seed=1)
        detector = MemoryThrottleDetector("svc", seed=2)
        workload = AdulteratedTPCCWorkload(0.8, data_size_gb=21.0, seed=3)
        result = db.run(workload.batch(30.0))
        report = detector.inspect(db, result)
        assert any(not t.requires_restart for t in report.throttles)
