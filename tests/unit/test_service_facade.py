"""Unit tests for AutoDBaaS facade behaviours."""

import pytest

from repro import AutoDBaaS
from repro.cloud import Provisioner
from repro.dbsim import postgres_catalog
from repro.tuners import OtterTuneTuner, WorkloadRepository
from repro.workloads import AdulteratedTPCCWorkload, TPCCWorkload


def _service(**kwargs):
    repo = WorkloadRepository()
    tuner = OtterTuneTuner(postgres_catalog(), repo, memory_limit_mb=6553.6, seed=1)
    return AutoDBaaS([tuner], repo, **kwargs)


class TestAttach:
    def test_requires_tuners(self):
        with pytest.raises(ValueError):
            AutoDBaaS([], WorkloadRepository())

    def test_apply_mode_validation(self):
        svc = _service()
        d = Provisioner(seed=2).provision()
        with pytest.raises(ValueError, match="apply_mode"):
            svc.attach(d, TPCCWorkload(seed=3), apply_mode="yolo")

    def test_registration_persists_config(self):
        svc = _service()
        d = Provisioner(seed=2).provision()
        svc.attach(d, TPCCWorkload(seed=3))
        assert (
            svc.orchestrator.persisted_config(d.instance_id)
            == d.service.master.config
        )


class TestThrottleContext:
    def test_request_carries_throttle_knobs(self):
        svc = _service(window_s=60.0)
        d = Provisioner(seed=2).provision(plan="m4.large", data_size_gb=21.0)
        svc.attach(d, AdulteratedTPCCWorkload(0.8, seed=3), policy="tde")
        outcome = svc.step()[0]
        assert outcome.tuning_requested
        # The throttle floors must have been raised in the director.
        floors = svc.director._knob_floors.get(d.instance_id, {})
        assert "work_mem" in floors

    def test_restart_apply_mode_restarts_nodes(self):
        svc = _service(window_s=60.0)
        d = Provisioner(seed=2).provision(plan="m4.large", data_size_gb=21.0)
        svc.attach(
            d,
            AdulteratedTPCCWorkload(0.8, seed=3),
            policy="periodic",
            periodic_interval_s=60.0,
            apply_mode="restart",
        )
        before_buffer = d.service.master.config["shared_buffers"]
        outcome = svc.step()[0]
        assert outcome.tuning_requested
        assert outcome.apply_report is not None
        # Native restart applies even restart-required knobs immediately.
        if outcome.apply_report.applied:
            rec_buffer = outcome.split.recommendation.config["shared_buffers"]
            if rec_buffer != before_buffer:
                assert d.service.master.config["shared_buffers"] != before_buffer

    def test_crashed_master_healed_next_step(self):
        svc = _service(window_s=60.0)
        d = Provisioner(seed=2).provision()
        svc.attach(d, TPCCWorkload(rps=50.0, seed=3), policy="monitor")
        d.service.master.crashed = True
        outcome = svc.step()[0]
        assert outcome.result.throughput > 0
        assert not d.service.master.crashed


class TestSampleStreaming:
    def test_rl_tuner_learns_through_facade(self):
        """Uploaded samples must reach policy-based tuners' learn()."""
        from repro.tuners import CDBTuneTuner

        repo = WorkloadRepository()
        tuner = CDBTuneTuner(postgres_catalog(), memory_limit_mb=6553.6, seed=1)
        svc = AutoDBaaS([tuner], repo, window_s=60.0)
        d = Provisioner(seed=2).provision(plan="m4.large", data_size_gb=21.0)
        svc.attach(
            d,
            AdulteratedTPCCWorkload(0.8, seed=3),
            policy="periodic",
            periodic_interval_s=60.0,
        )
        for _ in range(4):
            svc.step()
        # Transition per window after the first: recommend -> next learn.
        assert len(tuner._replay) >= 2
        # The repository holds each sample exactly once (no double-add).
        assert repo.total_samples() == 4
