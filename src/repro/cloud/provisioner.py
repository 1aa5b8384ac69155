"""Cloud provisioner — the cloud-foundry/Bosh stand-in.

§5 provisions everything through cloud-foundry managed by Bosh: 12 tuner
instances, 5 config-director instances and 80 live database deployments
across five VM plans, plus bare service replicas per plan for validating
recommendations. :class:`Provisioner` spawns those deployments in the
simulation and gives each its access credentials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.cloud.vm import VMType, vm_type
from repro.common.rng import derive_rng, make_rng
from repro.dbsim.replication import ReplicatedService

__all__ = ["Credentials", "ServiceDeployment", "Provisioner"]


@dataclass(frozen=True)
class Credentials:
    """Access credentials for one service instance (held by the orchestrator)."""

    instance_id: str
    username: str
    password: str


@dataclass
class ServiceDeployment:
    """One provisioned database service."""

    instance_id: str
    plan: str
    service: ReplicatedService
    credentials: Credentials
    labels: dict[str, str] = field(default_factory=dict)


class Provisioner:
    """Spawns service deployments on VM plans."""

    def __init__(
        self,
        seed: int | np.random.Generator | None = 0,
        start_index: int = 0,
    ) -> None:
        """*start_index* offsets instance numbering (``svc-{index:04d}``)
        so per-member provisioners in a sharded fleet hand out the same
        globally-unique ids a single serial provisioner would."""
        if start_index < 0:
            raise ValueError("start_index must be >= 0")
        self._rng = make_rng(seed)
        self._counter = itertools.count(start_index)

    def provision(
        self,
        plan: str | VMType = "m4.large",
        flavor: str = "postgres",
        data_size_gb: float = 20.0,
        replicas: int = 1,
        labels: dict[str, str] | None = None,
    ) -> ServiceDeployment:
        """Spawn a replicated database service on *plan*."""
        vm = vm_type(plan) if isinstance(plan, str) else plan
        index = next(self._counter)
        instance_id = f"svc-{index:04d}"
        service = ReplicatedService(
            flavor=flavor,
            vm=vm,
            data_size_gb=data_size_gb,
            replicas=replicas,
            seed=derive_rng(self._rng, instance_id),
        )
        password = "".join(
            "0123456789abcdef"[int(d)]
            for d in self._rng.integers(0, 16, size=16)
        )
        deployment = ServiceDeployment(
            instance_id=instance_id,
            plan=vm.name,
            service=service,
            credentials=Credentials(instance_id, f"admin_{index}", password),
            labels=dict(labels or {}),
        )
        return deployment
