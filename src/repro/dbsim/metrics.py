"""pg_stat-style metric snapshots and deltas.

Tuners train on *delta metrics*: the change in the database's cumulative
counters across a workload execution window (§1's "High Quality Samples").
:class:`MetricsDelta` is that vector. The canonical metric name list is
fixed so every tuner/TDE consumer sees the same ordering.

The vector holds no planner estimate. §5 observes that "ottertune fails
to understand such [planner] throttles mainly because of absence of
planner estimates in the metric set that it captures": planner costs are
visible only through EXPLAIN, which the TDE's planner probe runs
(:meth:`~repro.dbsim.engine.SimulatedDatabase.plan_cost`). Fig. 15's
lower async/planner accuracy for OtterTune comes from that blind spot,
which is built into the one metric set every tuner reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MetricsDelta", "METRIC_NAMES"]

#: Canonical ordering of every metric the simulator emits.
METRIC_NAMES: tuple[str, ...] = (
    "xact_commit",
    "tup_returned",
    "tup_inserted",
    "tup_updated",
    "tup_deleted",
    "blks_read",
    "blks_hit",
    "temp_files",
    "temp_mb",
    "buffers_checkpoint_mb",
    "buffers_clean_mb",
    "buffers_backend_mb",
    "backend_flush_mb",
    "checkpoints_timed",
    "checkpoints_requested",
    "wal_mb",
    "vacuum_mb",
    "disk_read_latency_ms",
    "disk_write_latency_ms",
    "disk_iops",
    "cpu_utilisation",
    "swap_factor",
    "throughput_tps",
    "avg_latency_ms",
    "window_s",
)
_NAME_SET = frozenset(METRIC_NAMES)


@dataclass
class MetricsDelta:
    """One window's delta-metric vector.

    Construct with a values mapping; missing canonical metrics default to
    0.0 and unknown names are rejected (typos in metric names have burnt
    enough tuning pipelines).
    """

    values: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = self.values.keys() - _NAME_SET
        if unknown:
            raise ValueError(f"unknown metrics: {sorted(unknown)}")
        for name in METRIC_NAMES:
            self.values.setdefault(name, 0.0)

    def __getitem__(self, name: str) -> float:
        if name not in _NAME_SET:
            raise KeyError(f"unknown metric {name!r}")
        return self.values[name]

    def as_vector(self, names: tuple[str, ...] = METRIC_NAMES) -> np.ndarray:
        """The metric values as a float vector in *names* order."""
        if not _NAME_SET.issuperset(names):
            unknown = next(name for name in names if name not in _NAME_SET)
            raise KeyError(f"unknown metric {unknown!r}")
        values = self.values
        return np.array([values[name] for name in names], dtype=float)

    @property
    def throughput(self) -> float:
        """Achieved transactions per second."""
        return self.values["throughput_tps"]
