"""The relational-database substrate.

An analytical simulator of a PostgreSQL-9.6-like / MySQL-5.6-like service
instance: knob catalogs in the paper's three throttle classes, a buffer
pool and working-area memory model (with disk spills), a background
writer/checkpointer whose bursts surface as disk-latency peaks, a planner
cost model with a latent per-workload optimum, and pg_stat-style delta
metrics for the tuners.
"""

from repro.dbsim.bgwriter import CheckpointEvent, WriteBackParams, WriteBackScheduler
from repro.dbsim.config import KnobConfiguration, MemoryBudgetError
from repro.dbsim.engine import (
    ApplyOutcome,
    DatabaseCrashed,
    ExecutionResult,
    SimulatedDatabase,
)
from repro.dbsim.knobs import (
    KnobCatalog,
    KnobClass,
    KnobDef,
    KnobUnit,
    catalog_for,
    mysql_catalog,
    postgres_catalog,
)
from repro.dbsim.memory import (
    SpillReport,
    buffer_hit_ratio,
    compute_spills,
    swap_factor,
    working_area_knobs,
)
from repro.dbsim.metrics import METRIC_NAMES, MetricsDelta
from repro.dbsim.planner import PlannerModel, latent_optimum
from repro.dbsim.replication import ReplicatedService
from repro.dbsim.storage import DiskWindowResult

__all__ = [
    "ApplyOutcome",
    "CheckpointEvent",
    "DatabaseCrashed",
    "DiskWindowResult",
    "ExecutionResult",
    "KnobCatalog",
    "KnobClass",
    "KnobConfiguration",
    "KnobDef",
    "KnobUnit",
    "METRIC_NAMES",
    "MemoryBudgetError",
    "MetricsDelta",
    "PlannerModel",
    "ReplicatedService",
    "SimulatedDatabase",
    "SpillReport",
    "WriteBackParams",
    "WriteBackScheduler",
    "buffer_hit_ratio",
    "catalog_for",
    "compute_spills",
    "latent_optimum",
    "mysql_catalog",
    "postgres_catalog",
    "swap_factor",
    "working_area_knobs",
]
