"""Fig. 5 — disk write latency, TPC-C under default vs tuned knobs.

The paper runs TPC-C on PostgreSQL for ~20 minutes with default knob
values and then with optimal values: the default trace shows high latency
with checkpoint-induced peaks, the tuned trace sits flat around ~6.5 ms
average write latency (their hardware). The tuned trace's mean becomes the
baseline the background-writer detector uses (§3.2). Expected shape: the
tuned series is lower on average and has smaller peaks; absolute numbers
depend on the device profile, not the authors' testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dbsim.engine import SimulatedDatabase
from repro.workloads.tpcc import TPCCWorkload

__all__ = ["DiskLatencyRun", "resample_mean", "run", "tuned_config_values"]


def tuned_config_values() -> dict[str, float]:
    """A hand-tuned PostgreSQL config for write-heavy TPC-C.

    Large buffer, patient checkpoints spread wide, and an aggressive
    background writer — the shape a trained tuner converges to on this
    workload (see the Fig. 12 pipeline for learned equivalents).
    """
    return {
        "shared_buffers": 4096,
        "checkpoint_timeout": 900,
        "max_wal_size": 8192,
        "checkpoint_completion_target": 0.9,
        "bgwriter_delay": 50,
        "bgwriter_lru_maxpages": 1000,
    }


@dataclass
class DiskLatencyRun:
    """Per-second write-latency traces for the two configurations.

    Both runs start at simulated second 0, so sample *i* of either trace
    is second *i*; ``times`` holds those timestamps.
    """

    times: np.ndarray
    default_latency: np.ndarray
    tuned_latency: np.ndarray

    @property
    def default_mean_ms(self) -> float:
        return float(np.mean(self.default_latency))

    @property
    def tuned_mean_ms(self) -> float:
        return float(np.mean(self.tuned_latency))


def resample_mean(
    times: np.ndarray, values: np.ndarray, bucket_s: float
) -> tuple[list[float], list[float]]:
    """Bucket ``(times, values)`` by *bucket_s* and average each bucket.

    *times* must be non-decreasing. Returns each non-empty bucket's start
    and mean; a bucket starts at the first timestamp plus a whole number
    of *bucket_s*.
    """
    starts: list[float] = []
    means: list[float] = []
    if not len(times):
        return starts, means
    bucket_start = float(times[0])
    acc: list[float] = []
    for time, value in zip(times.tolist(), values.tolist()):
        if time >= bucket_start + bucket_s:
            if acc:
                starts.append(bucket_start)
                means.append(float(np.mean(acc)))
            while time >= bucket_start + bucket_s:
                bucket_start += bucket_s
            acc = []
        acc.append(value)
    if acc:
        starts.append(bucket_start)
        means.append(float(np.mean(acc)))
    return starts, means


def run(
    duration_s: float = 1200.0,
    window_s: float = 60.0,
    rps: float = 3300.0,
    seed: int = 0,
) -> DiskLatencyRun:
    """Execute both 20-minute TPC-C sessions and collect latency traces."""
    traces: list[np.ndarray] = []
    for overrides in ({}, tuned_config_values()):
        db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=seed)
        if overrides:
            db.apply_config(db.config.with_values(overrides), mode="restart")
            db._pending_stall_s = 0.0  # measure steady state, not the restart
        workload = TPCCWorkload(rps=rps, seed=seed + 1)
        windows = []
        elapsed = 0.0
        while elapsed < duration_s:
            result = db.run(workload.batch(window_s, start_time_s=db.clock_s))
            windows.append(result.data_disk.write_latency)
            elapsed += window_s
        traces.append(np.concatenate(windows))
    return DiskLatencyRun(
        times=np.arange(len(traces[0]), dtype=float),
        default_latency=traces[0],
        tuned_latency=traces[1],
    )
