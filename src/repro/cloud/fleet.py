"""The live production fleet of §5 (80 connected database deployments).

Provisions *n* database services across the paper's VM plan mix
(t2.small, t2.medium, m4.large, t2.large, m4.xlarge), assigns each a
production-style diurnal workload with per-instance scale and phase
jitter. Fig. 9's shard workers build their members here and step them
through one :class:`~repro.dbsim.batch_engine.MemberBatch` per shard.

Every member derives its randomness from a **keyed substream** of the
fleet's entropy root (:func:`~repro.common.rng.substream` keyed by the
member's fleet index), never from draws shared across members. That is
what lets the sharded executor (:mod:`repro.parallel`) rebuild member
*i* in any worker process — via :func:`build_member` — with exactly the
state a serial build would have given it, making fleet results
invariant to shard and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.monitoring import MonitoringAgent
from repro.cloud.provisioner import Provisioner, ServiceDeployment
from repro.common.rng import substream
from repro.workloads.production import ProductionWorkload

__all__ = ["FleetMember", "FleetSpec", "PAPER_PLAN_MIX", "build_member"]

#: The §5 deployment plans, cycled over when provisioning the fleet.
PAPER_PLAN_MIX: tuple[str, ...] = (
    "t2.small",
    "t2.medium",
    "m4.large",
    "t2.large",
    "m4.xlarge",
)


@dataclass
class FleetMember:
    """One fleet database: deployment + workload + monitoring."""

    deployment: ServiceDeployment
    workload: ProductionWorkload
    monitoring: MonitoringAgent
    phase_offset_s: float

    @property
    def instance_id(self) -> str:
        return self.deployment.instance_id


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to (re)build any fleet member, picklable.

    ``build_member(spec, i)`` is a pure function of this spec, so a shard
    worker handed the spec plus its member indices reconstructs exactly
    the members a serial build would have produced.
    """

    size: int
    flavor: str = "postgres"
    mean_rps_range: tuple[float, float] = (80.0, 600.0)
    root: int = 0
    sample_size: int = 200

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("size must be positive")


def build_member(spec: FleetSpec, index: int) -> FleetMember:
    """Build fleet member *index* from its keyed substreams.

    Draw order within the member's stream is part of the determinism
    contract — reordering the draws below changes every seeded fleet.
    """
    if not 0 <= index < spec.size:
        raise ValueError(f"member index {index} outside fleet of {spec.size}")
    rng = substream(spec.root, "member", index)
    data_size_gb = float(rng.uniform(8.0, 60.0))
    mean_rps = float(rng.uniform(*spec.mean_rps_range))
    # Tenants in nearby timezones: jitter phases by ±1 h.
    phase_offset_s = float(rng.uniform(-3600.0, 3600.0))
    provisioner = Provisioner(
        seed=substream(spec.root, "provision", index), start_index=index
    )
    deployment = provisioner.provision(
        plan=PAPER_PLAN_MIX[index % len(PAPER_PLAN_MIX)],
        flavor=spec.flavor,
        data_size_gb=data_size_gb,
        replicas=1,
    )
    workload = ProductionWorkload(
        mean_rps=mean_rps,
        data_size_gb=deployment.service.master.data_size_gb,
        seed=substream(spec.root, "workload", index),
        sample_size=spec.sample_size,
    )
    return FleetMember(
        deployment=deployment,
        workload=workload,
        monitoring=MonitoringAgent(deployment.instance_id),
        phase_offset_s=phase_offset_s,
    )
