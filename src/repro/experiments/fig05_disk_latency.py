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

from repro.common.timeseries import TimeSeries
from repro.dbsim.engine import SimulatedDatabase
from repro.workloads.tpcc import TPCCWorkload

__all__ = ["DiskLatencyRun", "run", "tuned_config_values"]


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
    """Write-latency traces for the two configurations."""

    default_latency: TimeSeries
    tuned_latency: TimeSeries

    @property
    def default_mean_ms(self) -> float:
        return self.default_latency.mean()

    @property
    def tuned_mean_ms(self) -> float:
        return self.tuned_latency.mean()


def run(
    duration_s: float = 1200.0,
    window_s: float = 60.0,
    rps: float = 3300.0,
    seed: int = 0,
) -> DiskLatencyRun:
    """Execute both 20-minute TPC-C sessions and collect latency traces."""
    traces: list[TimeSeries] = []
    for overrides in ({}, tuned_config_values()):
        db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=seed)
        if overrides:
            db.apply_config(db.config.with_values(overrides), mode="restart")
            db._pending_stall_s = 0.0  # measure steady state, not the restart
        workload = TPCCWorkload(rps=rps, seed=seed + 1)
        trace = TimeSeries("data.write_latency_ms", "ms")
        elapsed = 0.0
        while elapsed < duration_s:
            result = db.run(workload.batch(window_s, start_time_s=db.clock_s))
            trace.extend_series(result.data_disk.write_latency)
            elapsed += window_s
        traces.append(trace)
    return DiskLatencyRun(default_latency=traces[0], tuned_latency=traces[1])
