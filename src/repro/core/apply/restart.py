"""Apply modes: reload signals vs socket activation (§4, Fig. 7).

Two ways to make a running database pick up new knob values without a
visible outage, each an ``apply_config`` mode of the simulated node:

- ``"socket"`` — **socket activation** (systemd): restart the process
  while systemd holds the listening socket; requests are cached, not
  refused — "however this method only caches the requests but causes a
  lot of jitter and performance degradation".
- ``"reload"`` — **reload signals** (SIGHUP / SET GLOBAL): apply tunable
  knobs in place — "we observe very minimal jitter in the performance of
  the database", even at a reload every 20 seconds (Fig. 7).

:class:`PeriodicReloadDriver` reproduces the Fig. 7 protocol: run a
workload while re-applying the config in the chosen mode at a fixed
frequency and collect the per-second IOPS for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dbsim.engine import ExecutionResult, SimulatedDatabase
from repro.workloads.generator import WorkloadGenerator

__all__ = ["PeriodicReloadDriver"]


@dataclass
class ReloadRunReport:
    """Outcome of one periodic-reload run."""

    #: Data-disk IOPS, one value per second of the run.
    iops: np.ndarray
    throughput_tps: list[float]
    reloads_fired: int

    @property
    def mean_tps(self) -> float:
        if not self.throughput_tps:
            return 0.0
        return sum(self.throughput_tps) / len(self.throughput_tps)


class PeriodicReloadDriver:
    """Fig. 7 harness: workload + periodic config re-apply.

    Runs *workload* on *db* in windows of ``reload_period_s`` seconds,
    re-applying the node's own current configuration in *mode*
    (``"reload"`` or ``"socket"``; ``None`` never re-applies) at every
    window boundary (a no-op change — the point is the apply mechanism's
    QoS cost, not new knob values).
    """

    def __init__(
        self,
        db: SimulatedDatabase,
        workload: WorkloadGenerator,
        mode: str | None,
        reload_period_s: float = 20.0,
    ) -> None:
        if mode not in (None, "reload", "socket"):
            raise ValueError(f"unknown apply mode {mode!r}")
        if reload_period_s <= 0:
            raise ValueError("reload_period_s must be positive")
        self.db = db
        self.workload = workload
        self.mode = mode
        self.reload_period_s = reload_period_s

    def run(self, total_duration_s: float) -> ReloadRunReport:
        """Run for *total_duration_s*, returning the stitched IOPS series."""
        if total_duration_s <= 0:
            raise ValueError("total_duration_s must be positive")
        windows = []
        throughput_tps = []
        reloads_fired = 0
        elapsed = 0.0
        while elapsed < total_duration_s:
            window = min(self.reload_period_s, total_duration_s - elapsed)
            result: ExecutionResult = self.db.run(
                self.workload.batch(window, start_time_s=self.db.clock_s)
            )
            windows.append(result.data_disk.iops)
            throughput_tps.append(result.throughput)
            elapsed += window
            if self.mode is not None and elapsed < total_duration_s:
                self.db.apply_config(self.db.config, mode=self.mode)
                reloads_fired += 1
        return ReloadRunReport(
            iops=np.concatenate(windows),
            throughput_tps=throughput_tps,
            reloads_fired=reloads_fired,
        )
