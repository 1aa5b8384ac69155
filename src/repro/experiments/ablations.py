"""Ablation studies for the design choices DESIGN.md calls out.

1. **Entropy filter** (§3.1): with the filter, an undersized VM running an
   evenly-mixed heavy workload escalates to a plan-upgrade request and the
   futile throttle stream is suppressed; without it, every window keeps
   firing tuning requests that cannot help.
2. **Workload mapping** (§3.2): the background-writer detector's precision
   depends on mapping the live workload to the right historical baseline;
   as the target accumulates samples, mapping stabilises — "the proposed
   approach eventually improves in efficiency with passing time".
3. **Slave-first apply** (§4): applying a crash-inducing configuration
   master-first kills the serving node; slave-first rejects the config
   while the master keeps serving.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import make_rng
from repro.core.tde.engine import ThrottlingDetectionEngine
from repro.core.tde.entropy import EntropyFilter
from repro.dbsim.engine import DatabaseCrashed, SimulatedDatabase
from repro.dbsim.knobs import KnobClass, postgres_catalog
from repro.dbsim.replication import ReplicatedService
from repro.experiments.common import offline_session
from repro.tuners.repository import WorkloadRepository
from repro.tuners.workload_mapping import WorkloadMapper
from repro.workloads.adulterated import AdulteratedTPCCWorkload
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.ycsb import YCSBWorkload

__all__ = [
    "EntropyFilterAblation",
    "ablate_entropy_filter",
    "MappingAblation",
    "ablate_mapping_growth",
    "SlaveFirstAblation",
    "ablate_slave_first",
]


# -- 1. entropy filter ----------------------------------------------------------


@dataclass(frozen=True)
class EntropyFilterAblation:
    """Tuning requests and escalations with/without the filter."""

    with_filter_requests: int
    with_filter_escalations: int
    without_filter_requests: int


def ablate_entropy_filter(
    windows: int = 24, seed: int = 0
) -> EntropyFilterAblation:
    """Undersized VM + evenly mixed heavy workload, filter on vs off."""

    def run(filter_enabled: bool) -> tuple[int, int]:
        db = SimulatedDatabase("postgres", "t2.small", 21.0, seed=seed)
        db.config = db.config.with_values(
            {"work_mem": 4096, "maintenance_work_mem": 8192, "temp_buffers": 2048}
        ).fitted_to_budget(db.vm.db_memory_limit_mb, db.active_connections)
        tde = ThrottlingDetectionEngine(
            "svc",
            db,
            WorkloadRepository(),
            enabled_classes={KnobClass.MEMORY},
            seed=seed + 1,
        )
        if not filter_enabled:
            # Disable all §3.1 filtering: no entropy escalation, no
            # at-cap rule filter — every spill fires a tuning request.
            tde.memory_detector.filter = EntropyFilter(trigger_count=10**9)
            tde.memory_detector.cap_filter_enabled = False
        workload = AdulteratedTPCCWorkload(0.8, data_size_gb=21.0, seed=seed + 2)
        requests = 0
        escalations = 0
        for _ in range(windows):
            report = tde.inspect(db.run(workload.batch(60.0, start_time_s=db.clock_s)))
            if report.needs_tuning:
                requests += 1
            escalations += len(report.escalations)
        return requests, escalations

    with_requests, with_escalations = run(filter_enabled=True)
    without_requests, _ = run(filter_enabled=False)
    return EntropyFilterAblation(
        with_filter_requests=with_requests,
        with_filter_escalations=with_escalations,
        without_filter_requests=without_requests,
    )


# -- 2. mapping growth ----------------------------------------------------------


@dataclass(frozen=True)
class MappingAblation:
    """Mapping correctness as the target's sample count grows."""

    samples_per_stage: list[int]
    mapped_correctly: list[bool]


def ablate_mapping_growth(
    stages: tuple[int, ...] = (1, 2, 4, 8, 16),
    seed: int = 0,
) -> MappingAblation:
    """Map a live TPC-C-like target as its dataset grows.

    The repository holds offline TPC-C and YCSB experience; the live
    target runs TPC-C. With one sample the mapping is a coin toss; with
    more, it should settle on TPC-C.
    """
    catalog = postgres_catalog()
    repository = WorkloadRepository()
    offline_session(
        repository,
        TPCCWorkload(rps=12_000.0, data_size_gb=26.0, seed=seed + 1),
        catalog,
        n_configs=12,
        seed=seed + 2,
    )
    offline_session(
        repository,
        YCSBWorkload(rps=12_000.0, data_size_gb=20.0, seed=seed + 3),
        catalog,
        n_configs=12,
        seed=seed + 4,
    )
    live = TPCCWorkload(rps=12_000.0, data_size_gb=26.0, seed=seed + 5)
    live_samples = []
    from repro.tuners.base import TrainingSample, vector_to_config

    # make_rng(int) is exactly default_rng(int), so the drawn stream (and
    # the seeded bench output) is unchanged by routing through common.rng.
    rng = make_rng(seed + 6)
    db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=seed + 7)
    for _ in range(max(stages)):
        config = vector_to_config(
            rng.uniform(0, 1, len(catalog)), catalog
        ).fitted_to_budget(db.vm.db_memory_limit_mb, db.active_connections)
        db.apply_config(config, mode="restart")
        db.run(live.batch(20.0, start_time_s=db.clock_s))
        window = db.run(live.batch(20.0, start_time_s=db.clock_s))
        live_samples.append(
            TrainingSample("live-tpcc", config, window.metrics, db.clock_s)
        )

    outcomes: list[bool] = []
    for stage in stages:
        staged = WorkloadRepository()
        staged.sync_from(repository)
        staged.add_many(live_samples[:stage])
        staged_mapper = WorkloadMapper(staged)
        mapping = staged_mapper.map_workload("live-tpcc")
        outcomes.append(mapping.best_workload_id == "tpcc")
    return MappingAblation(
        samples_per_stage=list(stages), mapped_correctly=outcomes
    )


# -- 3. slave-first apply ---------------------------------------------------------


@dataclass(frozen=True)
class SlaveFirstAblation:
    """Master availability under a crash-inducing configuration."""

    slave_first_master_up: bool
    master_first_master_up: bool


def ablate_slave_first(seed: int = 0) -> SlaveFirstAblation:
    """Apply an over-budget config slave-first vs master-first."""
    from repro.core.apply.dfa import DataFederationAgent

    bad_values = {"shared_buffers": 60_000, "work_mem": 4_000}

    slave_first = ReplicatedService("postgres", "m4.large", 20.0, replicas=1, seed=seed)
    DataFederationAgent().apply(
        slave_first, slave_first.config.with_values(bad_values), mode="restart"
    )
    slave_first_up = not slave_first.master.crashed

    master_first = ReplicatedService(
        "postgres", "m4.large", 20.0, replicas=1, seed=seed
    )
    try:
        master_first.master.apply_config(
            master_first.config.with_values(bad_values), mode="restart"
        )
    except DatabaseCrashed:
        pass
    master_first_up = not master_first.master.crashed
    return SlaveFirstAblation(
        slave_first_master_up=slave_first_up,
        master_first_master_up=master_first_up,
    )
