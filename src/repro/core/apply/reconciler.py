"""The reconciler: eventual consistency for half-applied configs (§4).

Applying a recommendation touches several stores non-atomically (slave
nodes, master node, orchestrator persistence). "A reconciler process is
defined [which] keeps a watch on config of the database system running on
the Master node. If the difference in config is observed for a threshold
time-period (watcher timeout), the reconciliation occurs and the config
stored in the persistence storage is applied to all nodes."

Reconciliation itself can fail — a node may be down or its adapter apply
may crash. Each node gets a bounded number of attempts per tick (crashed
nodes are healed between attempts); a node that still cannot be restored
is reported in the action and retried at the *next* tick, so one bad node
can never wedge the reconciler in an unbounded loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.common.recording import NULL_RECORDER, Recorder
from repro.core.apply.adapters import DatabaseAdapter, adapter_for
from repro.core.apply.orchestrator import ServiceOrchestrator
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.replication import ReplicatedService

__all__ = ["ConfigIncidentLog", "ReconcileAction", "Reconciler"]


class ConfigIncidentLog(Protocol):
    """Quarantine seam the safety governor implements.

    Reconciliation restores whatever persistence holds — but persistence
    can briefly hold a config the governor just auto-reverted (the
    promotion was persisted in the same window the regression was
    observed, or the revert apply itself failed). Restoring it would
    undo the revert, so the reconciler asks the incident log first and
    applies the replacement instead.
    """

    def quarantined_replacement(
        self, instance_id: str, config: KnobConfiguration, now_s: float
    ) -> KnobConfiguration | None:
        """Replacement for quarantined *config*, or ``None`` if clean."""
        ...


@dataclass(frozen=True)
class ReconcileAction:
    """What one reconciler tick did for one instance."""

    instance_id: str
    drift_detected: bool
    reconciled: bool


class Reconciler:
    """Watches master configs against persistence and rolls back drift.

    Parameters
    ----------
    orchestrator:
        Source of persisted (last committed) configurations.
    watcher_timeout_s:
        Drift older than this triggers reconciliation.
    adapter:
        Fixed adapter used for restores (default: per service flavor).
    max_attempts_per_node:
        Adapter applies per node per tick before giving up until the
        next tick — the hard bound that keeps reconciliation finite.
    incident_log:
        Optional :class:`ConfigIncidentLog` (the safety governor).
        When the persisted config is under quarantine there, the tick
        re-persists and restores the incident's replacement instead of
        re-applying a just-reverted config.
    """

    def __init__(
        self,
        orchestrator: ServiceOrchestrator,
        watcher_timeout_s: float = 120.0,
        adapter: DatabaseAdapter | None = None,
        max_attempts_per_node: int = 2,
        recorder: Recorder | None = None,
        incident_log: ConfigIncidentLog | None = None,
    ) -> None:
        if watcher_timeout_s <= 0:
            raise ValueError("watcher_timeout_s must be positive")
        if max_attempts_per_node < 1:
            raise ValueError("max_attempts_per_node must be >= 1")
        self.orchestrator = orchestrator
        self.watcher_timeout_s = watcher_timeout_s
        self.max_attempts_per_node = max_attempts_per_node
        self._adapter = adapter
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.incident_log = incident_log
        self._drift_since: dict[str, float] = {}

    def tick(
        self, instance_id: str, service: ReplicatedService, now_s: float
    ) -> ReconcileAction:
        """One watch cycle for *instance_id* at simulated time *now_s*."""
        persisted = self.orchestrator.persisted_config(instance_id)
        if self.incident_log is not None:
            replacement = self.incident_log.quarantined_replacement(
                instance_id, persisted, now_s
            )
            if replacement is not None:
                # Persistence holds a config the governor reverted within
                # its quarantine window: converge on the restored config,
                # never back onto the reverted one.
                self.orchestrator.persist_config(instance_id, replacement)
                persisted = replacement
                self.recorder.event(
                    "reconcile.quarantine_swap", instance=instance_id
                )
                self.recorder.inc(
                    "repro_reconcile_quarantine_swaps_total",
                    instance=instance_id,
                )
        drifted = service.master.config != persisted or not service.configs_consistent()
        if not drifted:
            self._drift_since.pop(instance_id, None)
            return ReconcileAction(instance_id, False, False)

        since = self._drift_since.setdefault(instance_id, now_s)
        age = now_s - since
        if age < self.watcher_timeout_s:
            return ReconcileAction(instance_id, True, False)

        # Timeout hit: restore persistence to every node (reload is enough
        # for the tunable knobs; restart-required drift waits for downtime).
        adapter = (
            self._adapter
            if self._adapter is not None
            else adapter_for(service.flavor)
        )
        restored = failed = 0
        for node in service.nodes:
            ok = False
            for _ in range(self.max_attempts_per_node):
                if node.crashed:
                    node.heal()
                result = adapter.apply(node, persisted, mode="reload")
                if result.crashed:
                    continue
                if result.ok:
                    ok = True
                    break
            if ok:
                restored += 1
            else:
                failed += 1
        self.recorder.event(
            "reconcile.restore",
            instance=instance_id,
            drift_age_s=age,
            restored=restored,
            failed=failed,
        )
        self.recorder.inc("repro_reconciliations_total", instance=instance_id)
        if failed:
            # Partial restore: keep the drift clock running so the next
            # tick retries immediately instead of waiting a fresh timeout.
            self.recorder.inc(
                "repro_reconcile_failed_nodes_total",
                instance=instance_id,
                value=float(failed),
            )
            return ReconcileAction(instance_id, True, False)
        self._drift_since.pop(instance_id, None)
        return ReconcileAction(instance_id, True, True)
