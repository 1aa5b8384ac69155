"""Unit tests for the apply pipeline: adapters, DFA, orchestrator,
reconciler, restart strategies, non-tunable policy."""

import pytest

from repro.cloud import Provisioner
from repro.core.apply import (
    DataFederationAgent,
    NonTunableKnobPolicy,
    PeriodicReloadDriver,
    Reconciler,
    ServiceOrchestrator,
    adapter_for,
)
from repro.core.director import ConfigRepository
from repro.dbsim import KnobConfiguration, ReplicatedService, SimulatedDatabase
from repro.workloads import TPCCWorkload


def _bad_config(config):
    return config.with_values({"shared_buffers": 60_000, "work_mem": 4_000})


class TestAdapters:
    def test_adapter_for(self):
        assert adapter_for("postgres").flavor == "postgres"
        assert adapter_for("mysql").flavor == "mysql"
        with pytest.raises(ValueError):
            adapter_for("oracle")

    def test_apply_success(self, pg_db):
        adapter = adapter_for("postgres")
        result = adapter.apply(pg_db, pg_db.config.with_values({"work_mem": 32}))
        assert result.ok and not result.crashed
        assert pg_db.config["work_mem"] == 32

    def test_apply_crash_reported_not_raised(self, pg_db):
        adapter = adapter_for("postgres")
        result = adapter.apply(pg_db, _bad_config(pg_db.config), mode="restart")
        assert result.crashed and not result.ok
        assert "MB" in result.error

    def test_wrong_flavor_rejected(self, my_db):
        with pytest.raises(ValueError):
            adapter_for("postgres").apply(my_db, my_db.config)


class TestDFA:
    def test_slave_first_apply_success(self):
        service = ReplicatedService("postgres", "m4.large", 20.0, replicas=2, seed=1)
        report = DataFederationAgent().apply(
            service, service.config.with_values({"work_mem": 64})
        )
        assert report.applied
        assert report.nodes_updated == 3
        assert service.configs_consistent()
        assert service.master.config["work_mem"] == 64

    def test_slave_crash_rejects_and_protects_master(self):
        """§4: crash on the slave ⇒ recommendation rejected, master safe."""
        service = ReplicatedService("postgres", "m4.large", 20.0, replicas=1, seed=1)
        report = DataFederationAgent().apply(
            service, _bad_config(service.config), mode="restart"
        )
        assert not report.applied
        assert report.rejected_at == "slave0"
        assert report.healed_slaves == [0]
        assert not service.master.crashed
        assert service.master.config["shared_buffers"] == 128

    def test_no_slaves_applies_to_master_directly(self):
        service = ReplicatedService("postgres", "m4.large", 20.0, replicas=0, seed=1)
        report = DataFederationAgent().apply(
            service, service.config.with_values({"work_mem": 99})
        )
        assert report.applied
        assert report.nodes_updated == 1

    def test_reload_skips_restart_knobs_reported(self):
        service = ReplicatedService("postgres", "m4.large", 20.0, replicas=1, seed=1)
        report = DataFederationAgent().apply(
            service, service.config.with_values({"shared_buffers": 4096})
        )
        assert report.applied
        assert "shared_buffers" in report.skipped_restart_required


class TestOrchestrator:
    def _registered(self):
        orch = ServiceOrchestrator(downtime_period_s=100.0)
        deployment = Provisioner(seed=1).provision(plan="m4.large")
        orch.register(deployment)
        return orch, deployment

    def test_register_persists_current_config(self):
        orch, d = self._registered()
        assert orch.persisted_config(d.instance_id) == d.service.master.config

    def test_unknown_instance(self):
        orch = ServiceOrchestrator()
        with pytest.raises(KeyError):
            orch.deployment("nope")

    def test_downtime_scheduling(self):
        orch, d = self._registered()
        assert not orch.downtime_due(d.instance_id, 50.0)
        assert orch.downtime_due(d.instance_id, 100.0)
        orch.record_downtime(d.instance_id, 100.0)
        assert not orch.downtime_due(d.instance_id, 150.0)
        assert orch.last_downtime_s(d.instance_id) == 100.0


class TestReconciler:
    def _setup(self):
        orch = ServiceOrchestrator()
        deployment = Provisioner(seed=2).provision(plan="m4.large", replicas=1)
        orch.register(deployment)
        return orch, deployment

    def test_no_drift_no_action(self):
        orch, d = self._setup()
        rec = Reconciler(orch, watcher_timeout_s=60.0)
        action = rec.tick(d.instance_id, d.service, now_s=0.0)
        assert not action.drift_detected

    def test_drift_within_timeout_not_reconciled(self):
        orch, d = self._setup()
        rec = Reconciler(orch, watcher_timeout_s=60.0)
        d.service.master.config = d.service.master.config.with_values({"work_mem": 77})
        action = rec.tick(d.instance_id, d.service, now_s=0.0)
        assert action.drift_detected and not action.reconciled

    def test_drift_past_timeout_rolls_back(self):
        """§4: stale drift ⇒ persisted config applied to all nodes."""
        orch, d = self._setup()
        rec = Reconciler(orch, watcher_timeout_s=60.0)
        d.service.master.config = d.service.master.config.with_values({"work_mem": 77})
        rec.tick(d.instance_id, d.service, now_s=0.0)
        action = rec.tick(d.instance_id, d.service, now_s=61.0)
        assert action.reconciled
        assert d.service.master.config["work_mem"] == 4
        assert d.service.configs_consistent()

    def test_drift_clears_if_resolved(self):
        orch, d = self._setup()
        rec = Reconciler(orch, watcher_timeout_s=60.0)
        original = d.service.master.config
        d.service.master.config = original.with_values({"work_mem": 77})
        rec.tick(d.instance_id, d.service, now_s=0.0)
        d.service.master.config = original
        action = rec.tick(d.instance_id, d.service, now_s=30.0)
        assert not action.drift_detected
        # New drift restarts the clock: 59 s later it is not yet due.
        d.service.master.config = original.with_values({"work_mem": 88})
        rec.tick(d.instance_id, d.service, now_s=40.0)
        action = rec.tick(d.instance_id, d.service, now_s=99.0)
        assert action.drift_detected and not action.reconciled

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            Reconciler(ServiceOrchestrator(), watcher_timeout_s=0.0)


class TestRestartStrategies:
    def test_reload_strategy_keeps_iops_steady(self):
        """Fig. 7: reload every 20 s ≈ no reloads at all."""
        db_plain = SimulatedDatabase("mysql", "m4.large", 26.0, seed=3)
        db_reload = SimulatedDatabase("mysql", "m4.large", 26.0, seed=3)
        workload_a = TPCCWorkload(rps=400.0, seed=4)
        workload_b = TPCCWorkload(rps=400.0, seed=4)
        plain = PeriodicReloadDriver(db_plain, workload_a, None, 20.0).run(200.0)
        reloaded = PeriodicReloadDriver(db_reload, workload_b, "reload", 20.0).run(200.0)
        assert reloaded.reloads_fired == 9
        assert reloaded.mean_tps == pytest.approx(plain.mean_tps, rel=0.03)

    def test_socket_activation_degrades(self):
        db_reload = SimulatedDatabase("mysql", "m4.large", 26.0, seed=3)
        db_socket = SimulatedDatabase("mysql", "m4.large", 26.0, seed=3)
        reload_run = PeriodicReloadDriver(
            db_reload, TPCCWorkload(rps=400.0, seed=4), "reload", 20.0
        ).run(200.0)
        socket_run = PeriodicReloadDriver(
            db_socket, TPCCWorkload(rps=400.0, seed=4), "socket", 20.0
        ).run(200.0)
        assert socket_run.mean_tps < reload_run.mean_tps * 0.9

    def test_invalid_period(self, pg_db, tpcc):
        with pytest.raises(ValueError):
            PeriodicReloadDriver(pg_db, tpcc, None, 0.0)

    def test_invalid_mode(self, pg_db, tpcc):
        with pytest.raises(ValueError):
            PeriodicReloadDriver(pg_db, tpcc, "restart", 20.0)


class TestNonTunablePolicy:
    def _policy_with_history(self, pg_catalog, values, times=None):
        repo = ConfigRepository()
        times = times or list(range(len(values)))
        for value, t in zip(values, times):
            repo.store(
                "svc",
                KnobConfiguration(pg_catalog, {"shared_buffers": value}),
                "tuner",
                float(t),
            )
        return NonTunableKnobPolicy(repo)

    def test_working_set_fits_sized_to_it(self, pg_catalog):
        policy = NonTunableKnobPolicy(ConfigRepository())
        decision = policy.decide(
            "svc",
            KnobConfiguration(pg_catalog),
            working_set_mb=2000.0,
            memory_limit_mb=8000.0,
            entropy_hits=0,
            last_downtime_s=0.0,
        )
        assert decision.rule == "working_set"
        assert decision.new_value_mb == 2000.0

    def test_reduce_on_p99_with_entropy_hit(self, pg_catalog):
        policy = self._policy_with_history(pg_catalog, [500, 600, 700])
        current = KnobConfiguration(pg_catalog, {"shared_buffers": 4096})
        decision = policy.decide(
            "svc", current, 20_000.0, 8000.0, entropy_hits=1, last_downtime_s=0.0
        )
        assert decision.rule == "reduce_p99_entropy_hit"
        assert decision.new_value_mb < 4096

    def test_no_reduction_without_entropy_hit(self, pg_catalog):
        policy = self._policy_with_history(pg_catalog, [500, 600, 700])
        current = KnobConfiguration(pg_catalog, {"shared_buffers": 4096})
        decision = policy.decide(
            "svc", current, 20_000.0, 8000.0, entropy_hits=0, last_downtime_s=0.0
        )
        assert decision.rule == "increase_toward_average"
        assert decision.new_value_mb >= 4096 or decision.new_value_mb == pytest.approx(
            0.7 * 8000.0
        )

    def test_no_history_keeps_current(self, pg_catalog):
        policy = NonTunableKnobPolicy(ConfigRepository())
        current = KnobConfiguration(pg_catalog, {"shared_buffers": 1024})
        decision = policy.decide(
            "svc", current, 20_000.0, 8000.0, entropy_hits=3, last_downtime_s=0.0
        )
        assert decision.rule == "no_history"
        assert decision.new_value_mb == 1024
