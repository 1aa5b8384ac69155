"""Per-query service-time model and batch-level throughput/latency.

The executor is analytic: a query family's service time is built from CPU
work (tuples examined, sort volume), buffer-pool misses served at disk
bandwidth, working-area spill I/O, WAL/commit waits that stretch with
current disk write latency, a planner distance penalty and an Amdahl
parallel speedup. Batch throughput then follows from comparing total
demand against the VM's CPU-seconds, with an M/M/c-flavoured latency
inflation near saturation.

These are the levers the paper's knobs pull: give a sort more
``work_mem`` → less spill I/O → smaller service time → more throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.hardware import VMType
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.memory import SpillReport
from repro.dbsim.planner import PlannerModel
from repro.workloads.generator import WorkloadBatch
from repro.workloads.query import QueryFootprint

__all__ = [
    "ExecutionSummary",
    "family_service_time_ms",
    "run_batch",
]

_CPU_MS_PER_ROW = 0.0004
_CPU_MS_BASE = 0.03
_CPU_MS_PER_SORT_MB = 0.9
_COMMIT_WAIT_FACTOR = 0.35
_SCHEDULER_EFFICIENCY = 0.9


@dataclass(slots=True)
class ExecutionSummary:
    """Throughput/latency outcome of one batch."""

    total_queries: int
    offered_tps: float
    achieved_tps: float
    avg_latency_ms: float
    cpu_utilisation: float
    demand_cpu_ms: float


def family_service_time_ms(
    footprint: QueryFootprint,
    config: KnobConfiguration,
    vm: VMType,
    hit_ratio: float,
    planner: PlannerModel,
    spill_mb: float,
    commit_latency_ms: float,
    data_latency_factor: float = 1.0,
    swap: float = 1.0,
) -> float:
    """Service time (ms) of one execution of a family.

    ``spill_mb`` is the disk traffic (write + read-back) one execution's
    working-area overflow costs, ``2 ×`` the family's entry in the
    window's :class:`~repro.dbsim.memory.SpillReport`.
    ``commit_latency_ms`` is the WAL device's write latency (commits fsync
    the log, which §3.2 keeps on its own disk); ``data_latency_factor``
    (≥ 1) is the data device's queueing inflation — checkpoint bursts and
    backend flushes make buffer misses and spill I/O slower.
    """
    cpu_ms = (
        _CPU_MS_BASE
        + footprint.rows_examined * _CPU_MS_PER_ROW
        + footprint.sort_mb * _CPU_MS_PER_SORT_MB
    )
    miss_mb = (footprint.read_kb / 1024.0) * (1.0 - hit_ratio)
    read_ms = miss_mb / vm.disk.throughput_mb_s * 1000.0 * data_latency_factor
    spill_ms = spill_mb / vm.disk.throughput_mb_s * 1000.0 * data_latency_factor
    commit_ms = 0.0
    if footprint.write_kb > 0.0:
        commit_ms = _COMMIT_WAIT_FACTOR * commit_latency_ms
    multiplier = planner.time_multiplier(config, footprint)
    return ((cpu_ms + read_ms + spill_ms) * multiplier + commit_ms) * swap


def run_batch(
    batch: WorkloadBatch,
    config: KnobConfiguration,
    vm: VMType,
    hit_ratio: float,
    planner: PlannerModel,
    spill: SpillReport,
    commit_latency_ms: float,
    data_latency_factor: float = 1.0,
    swap: float = 1.0,
) -> ExecutionSummary:
    """Throughput and mean latency of *batch* under *config*.

    Demand is summed per family, each family's spill I/O read from
    *spill*, the window's working-area accounting
    (:func:`~repro.dbsim.memory.compute_spills` of *batch* under
    *config*). Achieved throughput is capped by the VM's CPU-seconds.
    Latency inflates as utilisation approaches 1 (queueing) — mild below
    70% utilisation, steep beyond.
    """
    total_queries = batch.total_queries
    if total_queries == 0:
        return ExecutionSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)

    spilled = spill.spilled_families
    demand_ms = 0.0
    for name, count in batch.counts.items():
        if count == 0:
            continue
        service = family_service_time_ms(
            batch.families[name].footprint,
            config,
            vm,
            hit_ratio,
            planner,
            2.0 * spilled.get(name, 0.0),
            commit_latency_ms,
            data_latency_factor,
            swap,
        )
        demand_ms += service * count

    capacity_ms = vm.vcpus * batch.duration_s * 1000.0 * _SCHEDULER_EFFICIENCY
    utilisation = min(1.0, demand_ms / capacity_ms) if capacity_ms > 0 else 1.0
    achieved_fraction = min(1.0, capacity_ms / demand_ms) if demand_ms > 0 else 1.0
    achieved_tps = total_queries * achieved_fraction / batch.duration_s
    base_latency = demand_ms / total_queries
    queueing = 1.0 + 3.0 * utilisation**4
    return ExecutionSummary(
        total_queries=total_queries,
        offered_tps=batch.requested_rps,
        achieved_tps=achieved_tps,
        avg_latency_ms=base_latency * queueing,
        cpu_utilisation=utilisation,
        demand_cpu_ms=demand_ms,
    )
