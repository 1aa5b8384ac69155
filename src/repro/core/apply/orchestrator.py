"""Service Orchestrator: lifecycle, persisted configs (§2, §4).

The orchestrator "is responsible for performing all life-cycle operations
of service instances"; it keeps the persisted config the reconciler
restores drifted nodes to. It also owns the scheduled maintenance
downtime windows during which restart-required (non-tunable) knobs may
change. The paper's re-deploy path (update/patch restarts every node on
the persisted config) is not modelled: no experiment re-deploys.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.provisioner import ServiceDeployment
from repro.common.recording import NULL_RECORDER, Recorder
from repro.dbsim.config import KnobConfiguration

__all__ = ["AlreadyRegistered", "DowntimeWindow", "ServiceOrchestrator"]


class AlreadyRegistered(ValueError):
    """Raised when ``register`` would clobber a known instance's state.

    Registering resets the persisted configuration to whatever the
    deployment's master currently runs — for an instance the orchestrator
    already manages that silently discards the persisted (tuned) config
    the reconciler depends on. Use :meth:`adopt` when
    re-adoption is genuinely intended.
    """


@dataclass(frozen=True)
class DowntimeWindow:
    """A pre-announced maintenance window."""

    start_s: float
    duration_s: float


class ServiceOrchestrator:
    """Per-landscape orchestrator over provisioned deployments."""

    def __init__(
        self,
        downtime_period_s: float = 7 * 86_400.0,
        recorder: Recorder | None = None,
    ) -> None:
        self.downtime_period_s = downtime_period_s
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._deployments: dict[str, ServiceDeployment] = {}
        self._persisted: dict[str, KnobConfiguration] = {}
        self._last_downtime_s: dict[str, float] = {}

    # -- lifecycle ---------------------------------------------------------------

    def register(self, deployment: ServiceDeployment) -> None:
        """Adopt a new deployment; its current config becomes the persisted one.

        Raises :class:`AlreadyRegistered` for an instance id the
        orchestrator already manages: overwriting would silently replace
        the persisted (tuned) configuration with whatever the master node
        happens to run right now. Re-adoption must be explicit — see
        :meth:`adopt`.
        """
        if deployment.instance_id in self._deployments:
            raise AlreadyRegistered(
                f"instance {deployment.instance_id!r} is already registered; "
                "use adopt() to replace it explicitly"
            )
        self.adopt(deployment)

    def adopt(self, deployment: ServiceDeployment) -> None:
        """(Re-)adopt a deployment, resetting its persisted config.

        Unlike :meth:`register` this is idempotent: it is the explicit
        path for taking over an instance after a migration or a manual
        rebuild, where discarding the old persisted config is the point.
        """
        self._deployments[deployment.instance_id] = deployment
        self._persisted[deployment.instance_id] = (
            deployment.service.master.config
        )
        self._last_downtime_s.setdefault(deployment.instance_id, 0.0)
        self.recorder.event(
            "orchestrator.adopt",
            instance=deployment.instance_id,
            flavor=deployment.service.flavor,
        )

    def deployment(self, instance_id: str) -> ServiceDeployment:
        try:
            return self._deployments[instance_id]
        except KeyError:
            raise KeyError(f"unknown instance {instance_id!r}") from None

    # -- persisted configuration -------------------------------------------------

    def persist_config(
        self, instance_id: str, config: KnobConfiguration
    ) -> None:
        """Store the config the reconciler restores nodes to."""
        self.deployment(instance_id)  # validate the id
        self._persisted[instance_id] = config

    def persisted_config(self, instance_id: str) -> KnobConfiguration:
        """The config the reconciler restores nodes to."""
        try:
            return self._persisted[instance_id]
        except KeyError:
            raise KeyError(f"no persisted config for {instance_id!r}") from None

    # -- downtime windows -----------------------------------------------------------

    def downtime_due(self, instance_id: str, now_s: float) -> bool:
        """Whether the next scheduled downtime has arrived."""
        last = self._last_downtime_s.get(instance_id, 0.0)
        return now_s - last >= self.downtime_period_s

    def record_downtime(self, instance_id: str, now_s: float) -> None:
        """Mark a downtime as taken."""
        self.deployment(instance_id)
        self._last_downtime_s[instance_id] = now_s
        self.recorder.event("orchestrator.downtime", instance=instance_id)
        self.recorder.inc("repro_downtimes_total", instance=instance_id)

    def last_downtime_s(self, instance_id: str) -> float:
        return self._last_downtime_s.get(instance_id, 0.0)
