"""Memory model: buffer pool hit ratio, working-area spills, swap pressure.

This is the causal mechanism behind the paper's memory-knob throttles
(§3.1): each query family declares how much working-area memory its sorts,
maintenance operations and temporary tables demand; whatever does not fit
in the corresponding knob's allowance spills to disk. The TDE later reads
those spills out of EXPLAIN-style plans and raises memory throttles.

The §4 budget constraint also lives here: if the buffer pool plus the
per-connection working areas exceed the VM's database memory limit, the
process swaps and everything slows down by :func:`swap_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.hardware import VMType
from repro.dbsim.config import KnobConfiguration
from repro.workloads.generator import WorkloadBatch
from repro.workloads.query import QueryFootprint

__all__ = [
    "WorkingAreaKnobs",
    "working_area_knobs",
    "SpillReport",
    "buffer_hit_ratio",
    "compute_spills",
    "swap_factor",
    "HOT_FRACTION",
]

import math

#: Fraction of the loaded data that is "hot" (the actual working page set
#: of Curino et al. [5], which the paper's gauging approach estimates).
HOT_FRACTION = 0.35


@dataclass(frozen=True)
class WorkingAreaKnobs:
    """Which knobs bound each working-area category, per DBMS flavor."""

    sort: tuple[str, ...]
    maintenance: tuple[str, ...]
    temp: tuple[str, ...]


def working_area_knobs(flavor: str) -> WorkingAreaKnobs:
    """Knob names backing sorts, maintenance and temp tables for *flavor*.

    PostgreSQL: ``work_mem`` / ``maintenance_work_mem`` / ``temp_buffers``.
    MySQL: sorts and joins share ``sort_buffer_size`` + ``join_buffer_size``
    (the paper names both as TPCC's hot knobs), maintenance maps to
    ``key_buffer_size`` and temp tables to ``tmp_table_size``.
    """
    if flavor == "postgres":
        return WorkingAreaKnobs(
            sort=("work_mem",),
            maintenance=("maintenance_work_mem",),
            temp=("temp_buffers",),
        )
    if flavor == "mysql":
        return WorkingAreaKnobs(
            sort=("sort_buffer_size", "join_buffer_size"),
            maintenance=("key_buffer_size",),
            temp=("tmp_table_size",),
        )
    raise ValueError(f"unknown DBMS flavor {flavor!r}")


@dataclass
class SpillReport:
    """Working-area accounting for one executed batch.

    ``memory_used_mb`` / ``disk_used_mb`` reproduce the Fig. 2 columns:
    how much of the demand fit in memory vs went to disk (peak per
    execution, and total spilled volume for the I/O model).
    """

    memory_used_mb: float = 0.0
    disk_used_mb: float = 0.0
    spill_read_write_mb: float = 0.0
    spilled_families: dict[str, float] = field(default_factory=dict)
    temp_files: int = 0


def buffer_hit_ratio(buffer_mb: float, data_size_gb: float) -> float:
    """Buffer-pool hit ratio given the pool size and loaded data volume.

    Saturating-exponential curve against the hot working set: a pool equal
    to the working set achieves ~0.93, a pool a tenth that size ~0.25.
    """
    if buffer_mb <= 0:
        return 0.0
    working_set_mb = max(1.0, data_size_gb * 1024.0 * HOT_FRACTION)
    return 0.98 * (1.0 - math.exp(-3.0 * buffer_mb / working_set_mb))


def _category_demand(footprint: QueryFootprint, category: str) -> float:
    if category == "sort":
        return footprint.sort_mb
    if category == "maintenance":
        return footprint.maintenance_mb
    if category == "temp":
        return footprint.temp_mb
    raise ValueError(f"unknown working-area category {category!r}")


def compute_spills(
    batch: WorkloadBatch, config: KnobConfiguration
) -> SpillReport:
    """Working-area accounting: demand vs knob allowance per family.

    For each family and each working-area category, executions get
    ``min(demand, allowance)`` MB of memory; the excess spills, costing
    ``2 × excess`` MB of disk traffic (write the run, read it back — how
    external merge sorts behave).
    """
    knobs = working_area_knobs(config.catalog.flavor)
    allowance = {
        "sort": sum(config[name] for name in knobs.sort),
        "maintenance": sum(config[name] for name in knobs.maintenance),
        "temp": sum(config[name] for name in knobs.temp),
    }
    report = SpillReport()
    peak_memory = 0.0
    peak_disk = 0.0
    for name, count in batch.counts.items():
        if count == 0:
            continue
        footprint = batch.families[name].footprint
        family_spill = 0.0
        for category in ("sort", "maintenance", "temp"):
            demand = _category_demand(footprint, category)
            if demand <= 0.0:
                continue
            in_memory = min(demand, allowance[category])
            excess = demand - in_memory
            peak_memory = max(peak_memory, in_memory)
            if excess > 0.0:
                peak_disk = max(peak_disk, excess)
                family_spill += excess
                report.spill_read_write_mb += 2.0 * excess * count
                report.temp_files += count
        if family_spill > 0.0:
            report.spilled_families[name] = family_spill
    report.memory_used_mb = peak_memory
    report.disk_used_mb = peak_disk
    return report


def swap_factor(
    config: KnobConfiguration, vm: VMType, active_connections: int
) -> float:
    """Slowdown multiplier (≥ 1) from exceeding the DB memory limit.

    1.0 while the footprint fits; grows steeply (the OS is paging the
    buffer pool) once it does not.
    """
    limit = vm.db_memory_limit_mb
    footprint = config.memory_footprint_mb(active_connections)
    if footprint <= limit:
        return 1.0
    excess_fraction = (footprint - limit) / limit
    return 1.0 + 6.0 * excess_fraction
