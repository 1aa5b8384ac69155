"""Ablation: §2.1's hybrid tuner vs its BO and RL members.

Measures the §1 trade-off directly: per-recommendation compute cost
(which bounds how many service instances one tuner deployment can serve
at a 5-minute period) against the throughput the tuned database reaches
after a fixed number of recommendations. Expected shape: BO best quality
per recommendation but most expensive; RL cheapest but noisiest; the
hybrid lands between on cost while staying near the BO's quality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dbsim.engine import SimulatedDatabase
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import offline_train
from repro.tuners.base import TrainingSample, TuningRequest
from repro.tuners.cdbtune import CDBTuneTuner
from repro.tuners.hybrid import HybridTuner
from repro.tuners.ottertune import OtterTuneTuner
from repro.workloads.tpcc import TPCCWorkload

__all__ = ["TunerProfile", "run"]

_PERIOD_S = 300.0  # the paper's 5-minute monitoring period


@dataclass(frozen=True)
class TunerProfile:
    """One tuner's cost/quality/capacity profile."""

    name: str
    recommendation_cost_s: float
    final_tps: float
    best_tps: float

    @property
    def instances_per_deployment(self) -> float:
        """§1's capacity bound: instances one deployment serves at 5 min."""
        return _PERIOD_S / max(self.recommendation_cost_s, 1e-9)


def _closed_loop(
    tuner: OtterTuneTuner | CDBTuneTuner | HybridTuner, iterations: int, seed: int
) -> tuple[float, float]:
    db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=seed)
    workload = TPCCWorkload(rps=12_000.0, seed=seed + 1)
    measured: list[float] = []
    for _ in range(iterations):
        result = db.run(workload.batch(20.0, start_time_s=db.clock_s))
        tuner.observe(
            TrainingSample("tpcc-live", db.config, result.metrics, db.clock_s)
        )
        recommendation = tuner.recommend(
            TuningRequest("svc", "tpcc-live", db.config, result.metrics)
        )
        db.apply_config(
            recommendation.config.fitted_to_budget(
                db.vm.db_memory_limit_mb, db.active_connections
            ),
            mode="restart",
        )
        db.run(workload.batch(20.0, start_time_s=db.clock_s))
        db.run(workload.batch(20.0, start_time_s=db.clock_s))
        measured.append(
            db.run(workload.batch(20.0, start_time_s=db.clock_s)).throughput
        )
    return measured[-1], max(measured)


def run(iterations: int = 6, seed: int = 0) -> list[TunerProfile]:
    """Profile BO, RL and hybrid tuners on the same task."""
    catalog = postgres_catalog()
    profiles: list[TunerProfile] = []
    for name in ("ottertune", "cdbtune", "hybrid"):
        repository = offline_train(
            catalog, [TPCCWorkload(rps=12_000.0, seed=seed + 1)],
            n_configs=12, seed=seed + 2,
        )
        # Model the paper's production repository scale for the cost side.
        if name == "ottertune":
            tuner: OtterTuneTuner | CDBTuneTuner | HybridTuner = OtterTuneTuner(
                catalog, repository, memory_limit_mb=6553.6, seed=seed + 3
            )
        elif name == "cdbtune":
            tuner = CDBTuneTuner(catalog, memory_limit_mb=6553.6, seed=seed + 3)
        else:
            tuner = HybridTuner(
                catalog, repository, bo_every=4,
                memory_limit_mb=6553.6, seed=seed + 3,
            )
        final_tps, best_tps = _closed_loop(tuner, iterations, seed + 10)
        if name in ("ottertune", "hybrid"):
            # Report the cost at the paper's production repository size
            # (~2000 samples), not this toy session's.
            bo = tuner if name == "ottertune" else tuner.bo  # type: ignore[union-attr]
            bo._last_train_size = 2000
        cost = tuner.recommendation_cost_s()
        profiles.append(
            TunerProfile(
                name=name,
                recommendation_cost_s=cost,
                final_tps=final_tps,
                best_tps=best_tps,
            )
        )
    return profiles
