"""Property-based tests (hypothesis) on the hardened control plane.

Two invariants the robustness layer must hold for *any* seed:

- ``Reconciler.tick`` is idempotent: once a drift is reconciled, a second
  tick at the same instant observes a consistent service and changes
  nothing.
- A DFA apply rejected by a slave crash leaves the fleet restorable: after
  the reconciler's watcher timeout elapses, every node is back on the
  persisted pre-apply configuration, however the crash was injected.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import Provisioner
from repro.core.apply import (
    DataFederationAgent,
    Reconciler,
    ServiceOrchestrator,
    adapter_for,
)
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultyAdapter

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _deployment(seed):
    provisioner = Provisioner(seed=seed)
    deployment = provisioner.provision(replicas=2)
    orchestrator = ServiceOrchestrator()
    orchestrator.register(deployment)
    return orchestrator, deployment


class TestReconcilerIdempotence:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_tick_idempotent_after_reconcile(self, seed):
        orchestrator, deployment = _deployment(seed)
        service = deployment.service
        drifted = service.master.config.with_values({"work_mem": 96})
        service.master.apply_config(drifted, mode="reload")

        reconciler = Reconciler(orchestrator, watcher_timeout_s=60.0)
        instance_id = deployment.instance_id
        reconciler.tick(instance_id, service, 0.0)
        first = reconciler.tick(instance_id, service, 120.0)
        assert first.reconciled
        assert service.configs_consistent()

        snapshot = [node.config for node in service.nodes]
        second = reconciler.tick(instance_id, service, 120.0)
        assert not second.drift_detected
        assert not second.reconciled
        assert [node.config for node in service.nodes] == snapshot

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_consistent_service_never_touched(self, seed):
        orchestrator, deployment = _deployment(seed)
        service = deployment.service
        reconciler = Reconciler(orchestrator, watcher_timeout_s=60.0)
        snapshot = [node.config for node in service.nodes]
        for t in (0.0, 120.0, 240.0):
            action = reconciler.tick(deployment.instance_id, service, t)
            assert not action.drift_detected
        assert [node.config for node in service.nodes] == snapshot


class TestCrashRejectionRestores:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_slave_crash_rejection_restores_persisted_config(self, seed):
        orchestrator, deployment = _deployment(seed)
        service = deployment.service
        persisted = orchestrator.persisted_config(deployment.instance_id)

        plan = FaultPlan(
            (FaultEvent(FaultKind.APPLY_CRASH, deployment.instance_id, 0.0, 1.0),)
        )
        injector = FaultInjector(plan)
        adapter = FaultyAdapter(adapter_for(service.flavor), injector)
        adapter.register_service(deployment.instance_id, service.nodes)

        dfa = DataFederationAgent(adapter=adapter)
        target = persisted.with_values({"work_mem": 64})
        report = dfa.apply(service, target)
        assert not report.applied
        assert report.rejected_at == "slave0"

        # The crash-mid-apply left the slave drifted; the reconciler heals
        # the node and restores the persisted config once its watcher
        # timeout elapses. The fault window is over by then.
        injector.advance(10.0)
        reconciler = Reconciler(
            orchestrator, watcher_timeout_s=60.0, adapter=adapter
        )
        reconciler.tick(deployment.instance_id, service, 10.0)
        action = reconciler.tick(deployment.instance_id, service, 120.0)
        assert action.reconciled
        assert service.configs_consistent()
        assert all(node.config == persisted for node in service.nodes)
        assert not any(node.crashed for node in service.nodes)
