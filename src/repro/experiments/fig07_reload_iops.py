"""Fig. 7 — IOPS under TPC-C with periodic config reload signals.

The paper executes TPC-C on tuned MySQL twice: once without any config
re-apply and once firing a reload signal every 20 seconds, showing that
even at that frequency "the performance is not compromised". We add the
socket-activation alternative the paper rejected, to show why. Expected
shape: reload-every-20 s IOPS ≈ no-reload IOPS; socket activation dips.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.apply.restart import PeriodicReloadDriver, ReloadRunReport
from repro.dbsim.engine import SimulatedDatabase
from repro.workloads.tpcc import TPCCWorkload

__all__ = ["ReloadComparison", "run"]

_TUNED_MYSQL = {
    "innodb_buffer_pool_size": 4096,
    "innodb_io_capacity": 2000,
    "innodb_log_file_size": 2048,
}


@dataclass
class ReloadComparison:
    """The three Fig. 7 runs."""

    no_reload: ReloadRunReport
    reload_signal: ReloadRunReport
    socket_activation: ReloadRunReport

    def relative_tps(self, report: ReloadRunReport) -> float:
        """Throughput relative to the undisturbed run."""
        if self.no_reload.mean_tps == 0:
            raise ValueError("baseline run produced no throughput")
        return report.mean_tps / self.no_reload.mean_tps


def _one_run(
    mode: str | None,
    duration_s: float,
    reload_period_s: float,
    rps: float,
    seed: int,
) -> ReloadRunReport:
    db = SimulatedDatabase("mysql", "m4.large", 26.0, seed=seed)
    db.apply_config(db.config.with_values(_TUNED_MYSQL), mode="restart")
    db._pending_stall_s = 0.0  # the experiment starts after the tuned restart
    workload = TPCCWorkload(rps=rps, seed=seed + 1)
    return PeriodicReloadDriver(db, workload, mode, reload_period_s).run(
        duration_s
    )


def run(
    duration_s: float = 900.0,
    reload_period_s: float = 20.0,
    rps: float = 1200.0,
    seed: int = 0,
) -> ReloadComparison:
    """Run the three variants under identical load."""
    return ReloadComparison(
        no_reload=_one_run(None, duration_s, reload_period_s, rps, seed),
        reload_signal=_one_run("reload", duration_s, reload_period_s, rps, seed),
        socket_activation=_one_run("socket", duration_s, reload_period_s, rps, seed),
    )
