"""Figs. 10–11 — performance throttles by knob class, per workload.

The paper measures raw throttle counts (no tuning session) on m4.large
PostgreSQL (Fig. 10) and MySQL (Fig. 11) for: (a) the write-heavy panel
(TPC-C at 3300 rps / 26 GB), (b) the mix/read-heavy panel (Wikipedia
1000 rps / 12 GB, Twitter 10000 rps / 22 GB, YCSB 5000 rps / 20 GB) and
(c) the production workload, averaging ~20–25 iterations. Expected shape:
write-heavy workloads raise mostly background-writer throttles;
read/mix workloads raise memory and async/planner throttles; production
shows a mixture.

Throttle detection needs tuner experience for the §3.2 baseline, so the
repository is bootstrapped with offline sessions first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tde.engine import ThrottlingDetectionEngine
from repro.dbsim.engine import SimulatedDatabase
from repro.dbsim.knobs import KnobClass, catalog_for
from repro.experiments.common import offline_train
from repro.parallel import FleetExecutor
from repro.tuners.repository import WorkloadRepository
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.production import ProductionWorkload
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.twitter import TwitterWorkload
from repro.workloads.wikipedia import WikipediaWorkload
from repro.workloads.ycsb import YCSBWorkload

__all__ = ["ThrottlePanel", "run", "panel_workloads"]


@dataclass(frozen=True)
class ThrottlePanel:
    """Average throttle counts by class for one workload."""

    workload: str
    memory: float
    background_writer: float
    async_planner: float

    @property
    def dominant_class(self) -> str:
        counts = {
            "memory": self.memory,
            "background_writer": self.background_writer,
            "async_planner": self.async_planner,
        }
        return max(counts, key=counts.get)


def panel_workloads(seed: int = 0) -> dict[str, list[WorkloadGenerator]]:
    """The paper's three panels with its workload parameters."""
    return {
        "write-heavy": [TPCCWorkload(rps=3300.0, data_size_gb=26.0, seed=seed + 1)],
        "mix/read-heavy": [
            WikipediaWorkload(rps=1000.0, data_size_gb=12.0, seed=seed + 2),
            TwitterWorkload(rps=10_000.0, data_size_gb=22.0, seed=seed + 3),
            YCSBWorkload(rps=5000.0, data_size_gb=20.0, seed=seed + 4),
        ],
        "production": [
            ProductionWorkload(mean_rps=487.0, data_size_gb=59.0, seed=seed + 5)
        ],
    }


def measure_throttles(
    workload: WorkloadGenerator,
    flavor: str,
    repository: WorkloadRepository,
    iterations: int = 20,
    window_s: float = 60.0,
    vm: str = "m4.large",
    seed: int = 0,
) -> ThrottlePanel:
    """Average per-iteration throttle counts for one workload."""
    db = SimulatedDatabase(
        flavor, vm, data_size_gb=workload.data_size_gb, seed=seed
    )
    tde = ThrottlingDetectionEngine("svc", db, repository, seed=seed + 1)
    for _ in range(iterations):
        result = db.run(workload.batch(window_s, start_time_s=db.clock_s))
        tde.inspect(result)
    counts = tde.count_by_class()
    return ThrottlePanel(
        workload=workload.name,
        memory=counts[KnobClass.MEMORY] / iterations,
        background_writer=counts[KnobClass.BGWRITER] / iterations,
        async_planner=counts[KnobClass.ASYNC_PLANNER] / iterations,
    )


@dataclass(frozen=True)
class _MeasureTask:
    """One panel measurement, picklable for :meth:`FleetExecutor.map`."""

    panel: str
    workload: WorkloadGenerator
    flavor: str
    repository: WorkloadRepository
    iterations: int
    seed: int


def _run_measure(task: _MeasureTask) -> ThrottlePanel:
    return measure_throttles(
        task.workload,
        task.flavor,
        task.repository,
        iterations=task.iterations,
        seed=task.seed,
    )


def run(
    flavor: str = "postgres",
    iterations: int = 20,
    seed: int = 0,
    workers: int = 1,
    start_method: str | None = None,
) -> dict[str, list[ThrottlePanel]]:
    """Reproduce one figure (Fig. 10 for postgres, Fig. 11 for mysql).

    The five measurements are independent given the trained repository
    (the TDE only reads it), so *workers* fans them out across processes;
    results come back in panel order regardless of the worker count.
    """
    catalog = catalog_for(flavor)
    panels = panel_workloads(seed=seed)
    training = [
        TPCCWorkload(rps=3300.0, data_size_gb=26.0, seed=seed + 11),
        YCSBWorkload(rps=5000.0, data_size_gb=20.0, seed=seed + 12),
    ]
    executor = FleetExecutor(workers=workers, start_method=start_method)
    repository = offline_train(
        catalog, training, n_configs=10, seed=seed + 13, executor=executor
    )
    tasks = [
        _MeasureTask(
            panel=panel_name,
            workload=workload,
            flavor=flavor,
            repository=repository,
            iterations=iterations,
            seed=seed + 20 + i,
        )
        for panel_name, workloads in panels.items()
        for i, workload in enumerate(workloads)
    ]
    out: dict[str, list[ThrottlePanel]] = {name: [] for name in panels}
    for task, panel in zip(tasks, executor.map(_run_measure, tasks)):
        out[task.panel].append(panel)
    return out
