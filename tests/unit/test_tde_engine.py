"""Unit tests for the composed Throttling Detection Engine."""

import copy

import pytest

from repro.core.tde import TDEReport, Throttle, ThrottlingDetectionEngine
from repro.dbsim import KnobClass, SimulatedDatabase
from repro.tuners import WorkloadRepository
from repro.workloads import AdulteratedTPCCWorkload, TPCCWorkload


@pytest.fixture
def tde_db():
    return SimulatedDatabase("postgres", "m4.large", 21.0, seed=11)


class TestComposition:
    def test_inspect_aggregates_detectors(self, tde_db):
        tde = ThrottlingDetectionEngine("svc", tde_db, WorkloadRepository(), seed=1)
        workload = AdulteratedTPCCWorkload(0.8, seed=2)
        report = tde.inspect(tde_db.run(workload.batch(30.0)))
        assert KnobClass.MEMORY in {t.knob_class for t in report.throttles}

    def test_log_accumulates(self, tde_db):
        tde = ThrottlingDetectionEngine("svc", tde_db, WorkloadRepository(), seed=1)
        workload = AdulteratedTPCCWorkload(0.8, seed=2)
        for _ in range(3):
            tde.inspect(tde_db.run(workload.batch(20.0)))
        assert len(tde.log.throttles) >= 3
        counts = tde.log.count_by_class()
        assert counts[KnobClass.MEMORY] >= 3

    def test_enabled_classes_restrict(self, tde_db):
        tde = ThrottlingDetectionEngine(
            "svc",
            tde_db,
            WorkloadRepository(),
            enabled_classes={KnobClass.BGWRITER},
            seed=1,
        )
        workload = AdulteratedTPCCWorkload(0.8, seed=2)
        report = tde.inspect(tde_db.run(workload.batch(30.0)))
        classes = {t.knob_class for t in report.throttles}
        assert KnobClass.MEMORY not in classes
        assert KnobClass.ASYNC_PLANNER not in classes

    def test_planner_trigger_interval(self, tde_db):
        """The planner probe only runs every N-th window (§3.3's 2–4 min)."""
        tde = ThrottlingDetectionEngine(
            "svc",
            tde_db,
            WorkloadRepository(),
            enabled_classes={KnobClass.ASYNC_PLANNER},
            planner_trigger_every=3,
            seed=1,
        )
        workload = TPCCWorkload(seed=2)
        automaton = tde.planner_detector.automata["random_page_cost"]
        # Each probe draws exactly one action per automaton, so two probes
        # leave the automaton's stream two draws past a copy of it.
        twin = copy.deepcopy(automaton._rng)
        for _ in range(6):
            tde.inspect(tde_db.run(workload.batch(20.0)))
        twin.random(2)
        assert automaton._rng.bit_generator.state == twin.bit_generator.state

    def test_invalid_trigger_interval(self, tde_db):
        with pytest.raises(ValueError):
            ThrottlingDetectionEngine(
                "svc", tde_db, planner_trigger_every=0
            )


class TestNeedsTuning:
    def test_restart_only_throttles_do_not_request(self, tde_db):
        """Buffer-gauging throttles wait for downtime (§3.1)."""
        from repro.workloads import YCSBWorkload

        tde = ThrottlingDetectionEngine(
            "svc",
            tde_db,
            WorkloadRepository(),
            enabled_classes={KnobClass.MEMORY},
            seed=1,
        )
        workload = YCSBWorkload(rps=5000.0, data_size_gb=21.0, seed=2)
        report = tde.inspect(tde_db.run(workload.batch(30.0)))
        assert report.throttles  # buffer gauging fires
        assert all(t.requires_restart for t in report.throttles)
        assert not report.needs_tuning

    def test_working_area_throttles_request(self, tde_db):
        tde = ThrottlingDetectionEngine(
            "svc",
            tde_db,
            WorkloadRepository(),
            enabled_classes={KnobClass.MEMORY},
            seed=1,
        )
        workload = AdulteratedTPCCWorkload(0.8, seed=2)
        report = tde.inspect(tde_db.run(workload.batch(30.0)))
        assert report.needs_tuning


def _throttle(knob_class, knobs, requires_restart=False):
    return Throttle(
        "svc", "w", knob_class, knobs, "evidence", 0.0, requires_restart
    )


class TestFocus:
    def test_mixed_classes_take_first_actionable_class_and_knob_union(self):
        report = TDEReport(
            throttles=[
                _throttle(KnobClass.MEMORY, ("shared_buffers",), True),
                _throttle(
                    KnobClass.BGWRITER, ("bgwriter_delay", "checkpoint_timeout")
                ),
                _throttle(KnobClass.MEMORY, ("work_mem", "bgwriter_delay")),
            ]
        )
        assert report.focus() == (
            "background_writer",
            ("bgwriter_delay", "checkpoint_timeout", "work_mem"),
        )

    def test_restart_only_throttles_label_nothing(self):
        report = TDEReport(
            throttles=[_throttle(KnobClass.MEMORY, ("shared_buffers",), True)]
        )
        assert not report.needs_tuning
        assert report.focus() == (None, ())

    def test_no_throttles(self):
        assert TDEReport().focus() == (None, ())
