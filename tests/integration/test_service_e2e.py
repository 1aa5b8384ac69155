"""Integration tests: the full AutoDBaaS loop end to end."""

import pytest

from repro import AutoDBaaS
from repro.cloud import Provisioner
from repro.dbsim import postgres_catalog
from repro.tuners import OtterTuneTuner, WorkloadRepository
from repro.workloads import AdulteratedTPCCWorkload, TPCCWorkload


def _service(repo=None, window_s=60.0, downtime_period_s=86_400.0, seed=1):
    repo = repo if repo is not None else WorkloadRepository()
    tuner = OtterTuneTuner(
        postgres_catalog(), repo, memory_limit_mb=6553.6, seed=seed
    )
    return AutoDBaaS(
        [tuner], repo, window_s=window_s, downtime_period_s=downtime_period_s
    )


class TestEndToEnd:
    def test_tde_policy_requests_only_on_throttles(self):
        svc = _service()
        prov = Provisioner(seed=2)
        d = prov.provision(plan="m4.xlarge", flavor="postgres", data_size_gb=2.0)
        # Small DB on a big VM, comfortable buffer, planner knobs at their
        # latent optimum for this workload: a genuinely well-tuned system.
        from repro.dbsim.knobs import KnobClass
        from repro.dbsim.planner import latent_optimum

        planner_values = {
            k.name: latent_optimum("postgres", "tpcc", k)
            for k in d.service.master.catalog.by_class(KnobClass.ASYNC_PLANNER)
        }
        d.service.master.config = d.service.master.config.with_values(
            {"shared_buffers": 2048, **planner_values}
        )
        for node in d.service.slaves:
            node.config = d.service.master.config
        svc.attach(d, TPCCWorkload(rps=100.0, data_size_gb=2.0, seed=3), policy="tde")
        svc.orchestrator.persist_config(d.instance_id, d.service.master.config)
        requested = sum(svc.step()[0].tuning_requested for _ in range(5))
        assert requested == 0
        assert svc.director.total_requests == 0

    def test_periodic_policy_requests_on_interval(self):
        svc = _service()
        d = Provisioner(seed=2).provision(plan="m4.large", data_size_gb=20.0)
        svc.attach(
            d,
            TPCCWorkload(rps=100.0, seed=3),
            policy="periodic",
            periodic_interval_s=120.0,
        )
        requests = [svc.step()[0].tuning_requested for _ in range(6)]
        # 60 s windows, 120 s interval: every second window requests.
        assert sum(requests) == 3

    def test_monitor_policy_never_requests(self):
        svc = _service()
        d = Provisioner(seed=2).provision(plan="m4.large", data_size_gb=26.0)
        svc.attach(d, AdulteratedTPCCWorkload(0.8, seed=3), policy="monitor")
        for _ in range(3):
            outcome = svc.step()[0]
            assert not outcome.tuning_requested
            assert outcome.tde_report is None

    def test_unknown_policy_rejected(self):
        svc = _service()
        d = Provisioner(seed=2).provision()
        with pytest.raises(ValueError):
            svc.attach(d, TPCCWorkload(seed=3), policy="chaotic")

    def test_throttling_workload_triggers_apply(self):
        svc = _service()
        d = Provisioner(seed=2).provision(plan="m4.large", data_size_gb=21.0)
        svc.attach(d, AdulteratedTPCCWorkload(0.8, seed=3), policy="tde")
        outcome = svc.step()[0]
        assert outcome.tuning_requested
        assert outcome.apply_report is not None and outcome.apply_report.applied
        assert svc.repository.total_samples() == 1  # high-quality upload

    def test_downtime_resizes_buffer_and_improves_throughput(self):
        # monitor policy: no reload tuning, so the measured improvement is
        # attributable to the downtime buffer resize alone. The working
        # set fits under the buffer cap, so §4's working-set rule applies
        # without needing recommendation history.
        svc = _service(window_s=300.0, downtime_period_s=1800.0)
        d = Provisioner(seed=2).provision(plan="m4.large", data_size_gb=8.0)
        svc.attach(d, TPCCWorkload(data_size_gb=8.0, seed=3), policy="monitor")
        before = None
        for _ in range(8):
            outcome = svc.step()[0]
            if outcome.downtime_taken:
                before = outcome.result.throughput
                break
        assert before is not None
        svc.step()  # post-restart window: downtime + cold cache
        svc.step()  # warm-up window
        after = svc.step()[0].result.throughput
        assert d.service.master.config["shared_buffers"] > 128
        assert after > before * 1.5

    def test_throttle_counts_reported(self):
        svc = _service()
        d = Provisioner(seed=2).provision(plan="m4.large", data_size_gb=21.0)
        svc.attach(d, AdulteratedTPCCWorkload(0.8, seed=3), policy="tde")
        for _ in range(3):
            svc.step()
        counts = svc.throttle_counts()[d.instance_id]
        assert counts["memory"] >= 3


class TestSampleQuality:
    def test_tde_uploads_fewer_samples_than_periodic(self):
        """§1: TDE gating keeps low-quality idle samples out."""
        repo_tde = WorkloadRepository()
        repo_periodic = WorkloadRepository()
        for repo, policy in ((repo_tde, "tde"), (repo_periodic, "periodic")):
            svc = _service(repo=repo)
            d = Provisioner(seed=4).provision(plan="m4.xlarge", data_size_gb=2.0)
            d.service.master.config = d.service.master.config.with_values(
                {"shared_buffers": 2048}
            )
            svc.attach(
                d,
                TPCCWorkload(rps=50.0, data_size_gb=2.0, seed=5),
                policy=policy,
                periodic_interval_s=60.0,
            )
            svc.orchestrator.persist_config(d.instance_id, d.service.master.config)
            for _ in range(5):
                svc.step()
        assert repo_tde.total_samples() < repo_periodic.total_samples()
        assert repo_periodic.total_samples() == 5
