"""Master/slave replicated service instances.

§4's apply protocol requires a high-availability topology: recommendations
are applied to the slave node(s) first; if the process crashes there, the
recommendation is rejected while the master keeps serving. A
:class:`ReplicatedService` is a master :class:`SimulatedDatabase` plus
replicas sharing flavor/VM/data size, with config equality checks the
reconciler uses to detect drift.
"""

from __future__ import annotations

import numpy as np

from repro.common.hardware import VMType
from repro.common.rng import derive_rng, make_rng
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.engine import ExecutionResult, SimulatedDatabase
from repro.workloads.generator import WorkloadBatch

__all__ = ["ReplicatedService"]


class ReplicatedService:
    """A service instance: one master and ``replicas`` slaves.

    All nodes share the VM type and data size; only the master executes
    workload (read replicas are out of scope for the paper's experiments —
    the slaves exist to absorb risky config applies first).
    """

    def __init__(
        self,
        flavor: str = "postgres",
        vm: str | VMType = "m4.large",
        data_size_gb: float = 20.0,
        replicas: int = 1,
        active_connections: int = 20,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        rng = make_rng(seed)
        self.master = SimulatedDatabase(
            flavor,
            vm,
            data_size_gb,
            active_connections,
            seed=derive_rng(rng, "master"),
        )
        self.slaves = [
            SimulatedDatabase(
                flavor,
                vm,
                data_size_gb,
                active_connections,
                seed=derive_rng(rng, f"slave{i}"),
            )
            for i in range(replicas)
        ]

    @property
    def flavor(self) -> str:
        return self.master.flavor

    @property
    def nodes(self) -> list[SimulatedDatabase]:
        """Slaves first, master last — the §4 apply order."""
        return [*self.slaves, self.master]

    @property
    def config(self) -> KnobConfiguration:
        """The master's live configuration."""
        return self.master.config

    def run(self, batch: WorkloadBatch) -> ExecutionResult:
        """Execute *batch* on the master."""
        return self.master.run(batch)

    def configs_consistent(self) -> bool:
        """Whether every node runs the same configuration."""
        return all(node.config == self.master.config for node in self.slaves)
