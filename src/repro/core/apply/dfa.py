"""Data Federation Agent: slave-first configuration apply (§4).

"In case of multiple nodes maintaining high availability, the
recommendations are first applied to the Slave node(s). If the process
crashes in the Slave node, the config recommendations are rejected. Thus,
it is ensured that the Master node is up ... After the config
recommendations are applied to the Master node, the recommendations are
stored in the persistence storage used by the service-orchestrator."

The DFA implements exactly that protocol against a
:class:`~repro.dbsim.replication.ReplicatedService`, healing any slave it
crashed and reporting rejection instead of propagating the failure.

Per-node applies are failure-hardened: a *transient* adapter failure
(``ok=False, crashed=False`` — connection refused, API flake) is retried
with exponential backoff up to ``max_attempts`` times within a
``apply_deadline_s`` budget of simulated seconds. Both bounds are hard —
there is no unbounded retry loop anywhere in the apply path. A *crash*
is never retried: §4's protocol treats it as a definitive rejection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.monitoring import MonitoringAgent
from repro.common.recording import NULL_RECORDER, Recorder
from repro.core.apply.adapters import DatabaseAdapter, adapter_for
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.engine import DatabaseCrashed, SimulatedDatabase
from repro.dbsim.replication import ReplicatedService
from repro.workloads.generator import WorkloadBatch

__all__ = ["ApplyReport", "CanaryContext", "DataFederationAgent"]


@dataclass
class CanaryContext:
    """Inputs for a canary-on-slave evaluation (safe online tuning).

    When passed to :meth:`DataFederationAgent.apply`, the first slave
    becomes a canary: it replays *batch* under the incumbent config,
    then under the candidate, and the candidate is only promoted to the
    remaining nodes if its throughput reaches ``threshold`` times the
    incumbent's. Both replays' telemetry is ingested into *monitor*
    (the §2 external-monitoring seam) and the throughput comparison is
    read back from that series, so the decision flows through the same
    pipeline every other observer uses. Replaying the same batch twice
    on the same node makes the comparison self-calibrating: cold-cache
    and background-writer state affect both runs alike.
    """

    batch: WorkloadBatch
    monitor: MonitoringAgent | None = None
    threshold: float = 0.85


@dataclass
class ApplyReport:
    """Outcome of one fleet-wide apply attempt."""

    applied: bool
    rejected_at: str = ""
    error: str = ""
    skipped_restart_required: tuple[str, ...] = ()
    nodes_updated: int = 0
    healed_slaves: list[int] = field(default_factory=list)
    #: Total adapter calls across nodes, retries included.
    attempts: int = 0
    #: Simulated seconds spent waiting in retry backoff.
    backoff_s: float = 0.0
    #: True when the apply was abandoned on the deadline, not a crash.
    deadline_exceeded: bool = False
    #: True when a canary phase ran on the first slave.
    canary_evaluated: bool = False
    #: True when the canary comparison rejected the candidate.
    canary_rejected: bool = False
    #: Canary throughput under the incumbent config (tps).
    canary_baseline_tps: float = 0.0
    #: Canary throughput under the candidate config (tps).
    canary_tps: float = 0.0


class DataFederationAgent:
    """Applies recommendations to all nodes of a service, slave-first.

    Parameters
    ----------
    adapter:
        Fixed adapter to use (default: resolve per service flavor).
    max_attempts:
        Adapter calls per node before giving up on transient failures.
    backoff_s:
        First retry's backoff in simulated seconds; doubles per retry.
    apply_deadline_s:
        Budget of simulated backoff seconds for one fleet-wide apply;
        exceeding it abandons the apply with ``deadline_exceeded``.
    recorder:
        Observability seam (:mod:`repro.common.recording`): each apply
        opens a ``dfa.apply`` span, retries emit ``dfa.retry`` events and
        outcomes land in the metrics registry. Default: no-op.
    """

    def __init__(
        self,
        adapter: DatabaseAdapter | None = None,
        max_attempts: int = 3,
        backoff_s: float = 2.0,
        apply_deadline_s: float = 60.0,
        recorder: Recorder | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if backoff_s <= 0:
            raise ValueError("backoff_s must be positive")
        if apply_deadline_s <= 0:
            raise ValueError("apply_deadline_s must be positive")
        self._adapter = adapter
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.apply_deadline_s = apply_deadline_s
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    def _resolve_adapter(self, service: ReplicatedService) -> DatabaseAdapter:
        if self._adapter is not None:
            return self._adapter
        return adapter_for(service.flavor)

    def _apply_node(
        self,
        adapter: DatabaseAdapter,
        node: SimulatedDatabase,
        config: KnobConfiguration,
        mode: str,
        report: ApplyReport,
        slave: int | None,
        instance_id: str,
    ) -> bool:
        """One node's apply with bounded retry on transient failures.

        *slave* is the node's slave index, ``None`` for the master.
        Returns False after recording the rejection on *report*. A
        crashed node is healed: a healed slave is listed in
        ``report.healed_slaves``, and after a master crash the reconciler
        restores the slave configs from persistence. Failing without a
        crash means the node ran out of attempts or deadline.
        """
        name = "master" if slave is None else f"slave{slave}"
        result = adapter.apply(node, config, mode=mode)
        report.attempts += 1
        attempt = 1
        while (
            not result.ok
            and not result.crashed
            and attempt < self.max_attempts
            and report.backoff_s < self.apply_deadline_s
        ):
            report.backoff_s += self.backoff_s * 2.0 ** (attempt - 1)
            self.recorder.event(
                "dfa.retry",
                instance=instance_id,
                node=name,
                attempt=attempt,
                error=result.error,
            )
            result = adapter.apply(node, config, mode=mode)
            report.attempts += 1
            attempt += 1
        if result.crashed or not result.ok:
            if result.crashed:
                node.heal()
                if slave is not None:
                    report.healed_slaves.append(slave)
            report.rejected_at = name
            report.error = result.error
            report.deadline_exceeded = not result.crashed
            return False
        report.skipped_restart_required = result.skipped_restart_required
        return True

    def apply(
        self,
        service: ReplicatedService,
        config: KnobConfiguration,
        mode: str = "reload",
        instance_id: str = "",
        canary: CanaryContext | None = None,
    ) -> ApplyReport:
        """Apply *config* slave-first; reject on any slave crash.

        A crashed slave is healed (restarted with its previous
        configuration) before returning, so rejection leaves the service
        in its pre-apply state. Transient failures are retried per node
        (see class docstring); running out of attempts or deadline
        abandons the apply the same way a slave crash does, rolling
        already-updated slaves back.

        With a :class:`CanaryContext` (and at least one slave), the
        first slave is evaluated as a canary before anything else is
        touched; a candidate that fails the throughput comparison is
        rejected with ``rejected_at="canary"`` and the canary slave is
        restored to the incumbent config. Without slaves the canary
        phase is skipped (there is nothing to sacrifice).

        *instance_id* only labels trace spans and metrics — the service
        itself carries no identity, so callers that have one pass it in.
        """
        with self.recorder.span(
            "dfa.apply", instance=instance_id, mode=mode
        ) as span:
            report = self._apply(service, config, mode, instance_id, canary)
            span.set(
                applied=report.applied,
                rejected_at=report.rejected_at,
                attempts=report.attempts,
                nodes_updated=report.nodes_updated,
            )
            if report.canary_evaluated:
                span.set(
                    canary_rejected=report.canary_rejected,
                    canary_baseline_tps=report.canary_baseline_tps,
                    canary_tps=report.canary_tps,
                )
        outcome = (
            "applied"
            if report.applied
            else ("deadline" if report.deadline_exceeded else "rejected")
        )
        self.recorder.inc(
            "repro_applies_total", instance=instance_id, outcome=outcome
        )
        if report.canary_rejected:
            self.recorder.inc(
                "repro_canary_rejections_total", instance=instance_id
            )
        if report.backoff_s > 0.0:
            self.recorder.observe(
                "repro_apply_backoff_seconds", report.backoff_s
            )
        return report

    def _canary(
        self,
        adapter: DatabaseAdapter,
        service: ReplicatedService,
        config: KnobConfiguration,
        mode: str,
        report: ApplyReport,
        canary: CanaryContext,
        instance_id: str,
    ) -> bool:
        """Evaluate *config* on the first slave; True means promote.

        The incumbent replay runs first (the slave already carries that
        config), the candidate replay second; ordering is fixed so the
        comparison is deterministic. Any crash — during the apply or
        either replay — is a definitive rejection, mirroring §4's
        slave-crash semantics; the slave is healed and restored.
        """
        node = service.slaves[0]
        previous = service.master.config
        report.canary_evaluated = True

        def replay() -> float | None:
            try:
                result = node.run(canary.batch)
            except DatabaseCrashed:
                return None
            if canary.monitor is not None:
                canary.monitor.ingest(result)
                return canary.monitor.throughput.values[-1]
            return result.throughput

        baseline_tps = replay()
        if baseline_tps is None:
            node.heal()
            report.healed_slaves.append(0)
            report.rejected_at = "canary"
            report.error = "canary slave crashed replaying the incumbent"
            return False
        report.canary_baseline_tps = baseline_tps

        if not self._apply_node(
            adapter, node, config, mode, report, 0, instance_id
        ):
            return False

        candidate_tps = replay()
        if candidate_tps is None:
            node.heal()
            report.healed_slaves.append(0)
            adapter.apply(node, previous, mode="reload")
            report.rejected_at = "canary"
            report.error = "canary slave crashed under the candidate config"
            return False
        report.canary_tps = candidate_tps

        if candidate_tps < canary.threshold * baseline_tps:
            report.canary_rejected = True
            report.rejected_at = "canary"
            report.error = (
                f"canary regression: {candidate_tps:.1f} tps < "
                f"{canary.threshold:.2f} x {baseline_tps:.1f} tps"
            )
            self.recorder.event(
                "dfa.canary_reject",
                instance=instance_id,
                baseline_tps=baseline_tps,
                candidate_tps=candidate_tps,
            )
            adapter.apply(node, previous, mode="reload")
            return False
        report.nodes_updated += 1
        return True

    def _apply(
        self,
        service: ReplicatedService,
        config: KnobConfiguration,
        mode: str,
        instance_id: str,
        canary: CanaryContext | None = None,
    ) -> ApplyReport:
        adapter = self._resolve_adapter(service)
        report = ApplyReport(applied=False)
        previous = service.master.config
        canaried = canary is not None and bool(service.slaves)
        if canaried and canary is not None:
            if not self._canary(
                adapter, service, config, mode, report, canary, instance_id
            ):
                return report
        for index, slave in enumerate(service.slaves):
            if canaried and index == 0:
                continue  # the canary slave already carries the candidate
            if not self._apply_node(
                adapter, slave, config, mode, report, index, instance_id
            ):
                # Roll earlier slaves back so rejection leaves the whole
                # service on its pre-apply configuration (the reconciler
                # would converge them eventually; do it now).
                for updated in service.slaves[:index]:
                    adapter.apply(updated, previous, mode="reload")
                return report
            report.nodes_updated += 1

        if not self._apply_node(
            adapter, service.master, config, mode, report, None, instance_id
        ):
            return report
        report.nodes_updated += 1
        report.applied = True
        return report
