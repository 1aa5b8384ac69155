"""Ablation: fixed full-space tuning vs dynamic per-workload knob selection.

The DOT-style claim behind ``SelectionPolicy``: most workloads are moved
by a small, workload-specific subset of knobs, so tuning inside a
Lasso-ranked active subspace should retain (nearly) all of the
throughput of full-space tuning while touching far fewer knobs — a
smaller space for candidate generation, repair and the GP to cover.

Per workload (TPC-C, YCSB, TPC-H) the study runs two paired arms on one
seed: *fixed* (a stock :class:`~repro.tuners.ottertune.OtterTuneTuner`
over the full catalog) and *dynamic* (the same tuner armed with a
:class:`~repro.tuners.knob_selection.SelectionPolicy`). Both
arms bootstrap from identically-built offline repositories and drive
identically-seeded databases through the same closed recommend/apply
loop, so the only difference is the subspace. The report records each
arm's subspace size and throughput, plus the dynamic arm's *retention*
(its best throughput as a fraction of the fixed arm's).

Everything derives from the seed; :meth:`KnobAblationReport.render` is
byte-identical across runs with equal arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.features import Features
from repro.dbsim.engine import SimulatedDatabase
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import format_table, offline_train
from repro.tuners.base import TrainingSample, TuningRequest
from repro.tuners.knob_selection import SelectionPolicy
from repro.tuners.ottertune import OtterTuneTuner
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.tpch import TPCHWorkload
from repro.workloads.ycsb import YCSBWorkload

__all__ = ["ArmResult", "KnobAblationReport", "WORKLOAD_NAMES", "run"]

#: The three benchmark workloads the study sweeps, in report order.
WORKLOAD_NAMES = ("tpcc", "ycsb", "tpch")


@dataclass(frozen=True)
class ArmResult:
    """One (workload, arm) cell of the ablation grid."""

    workload: str
    arm: str  # "fixed" | "dynamic"
    subspace_size: int
    total_knobs: int
    best_tps: float
    mean_tps: float


@dataclass
class KnobAblationReport:
    """Paired fixed/dynamic results across the benchmark workloads."""

    seed: int
    iterations: int
    results: list[ArmResult]

    def pair(self, workload: str) -> tuple[ArmResult, ArmResult]:
        """The (fixed, dynamic) pair for *workload*."""
        fixed = next(
            r for r in self.results
            if r.workload == workload and r.arm == "fixed"
        )
        dynamic = next(
            r for r in self.results
            if r.workload == workload and r.arm == "dynamic"
        )
        return fixed, dynamic

    def retention(self, workload: str) -> float:
        """Dynamic best throughput / fixed best throughput."""
        fixed, dynamic = self.pair(workload)
        return dynamic.best_tps / fixed.best_tps if fixed.best_tps > 0 else 1.0

    def render(self) -> str:
        """Fixed-format text report (byte-identical for a given seed)."""
        lines = [
            "knob-selection ablation "
            f"(seed={self.seed} iterations={self.iterations})",
            "",
            format_table(
                ("workload", "arm", "subspace", "total", "best tps", "mean tps"),
                [
                    (
                        r.workload,
                        r.arm,
                        r.subspace_size,
                        r.total_knobs,
                        f"{r.best_tps:.1f}",
                        f"{r.mean_tps:.1f}",
                    )
                    for r in self.results
                ],
            ),
            "",
        ]
        for workload in WORKLOAD_NAMES:
            fixed, dynamic = self.pair(workload)
            lines.append(
                f"{workload}: subspace {dynamic.subspace_size}/"
                f"{fixed.subspace_size} knobs, "
                f"retention {self.retention(workload):.3f}"
            )
        return "\n".join(lines) + "\n"


def _workloads(seed: int) -> list[WorkloadGenerator]:
    """The three benchmarks at stressing offered rates, seeded."""
    return [
        TPCCWorkload(rps=12_000.0, data_size_gb=26.0, seed=seed + 1),
        YCSBWorkload(rps=10_000.0, data_size_gb=20.0, seed=seed + 1),
        TPCHWorkload(rps=8.0, data_size_gb=24.0, seed=seed + 1),
    ]


def _dynamic_policy() -> SelectionPolicy:
    """The dynamic arm's policy.

    Automaton exclusion is off here: this study isolates subspace-vs-
    full-space, and there is no learning automaton in the loop to own
    the async/planner knobs — excluding them would handicap the dynamic
    arm on exactly the (analytic) workloads those knobs move most.
    """
    return SelectionPolicy(exclude_automaton_knobs=False)


def _closed_loop(
    tuner: OtterTuneTuner,
    workload: WorkloadGenerator,
    iterations: int,
    seed: int,
) -> tuple[float, float]:
    """Recommend/apply/measure *iterations* times; return (best, mean) tps.

    Both arms call this with identically-seeded databases and workloads,
    so every difference in the measured series comes from the tuner.
    """
    db = SimulatedDatabase("postgres", "m4.large", workload.data_size_gb, seed=seed)
    measured: list[float] = []
    for _ in range(iterations):
        result = db.run(workload.batch(20.0, start_time_s=db.clock_s))
        tuner.observe(
            TrainingSample(workload.name, db.config, result.metrics, db.clock_s)
        )
        recommendation = tuner.recommend(
            TuningRequest("svc", workload.name, db.config, result.metrics)
        )
        db.apply_config(
            recommendation.config.fitted_to_budget(
                db.vm.db_memory_limit_mb, db.active_connections
            ),
            mode="restart",
        )
        db.run(workload.batch(20.0, start_time_s=db.clock_s))  # warm
        measured.append(
            db.run(workload.batch(20.0, start_time_s=db.clock_s)).throughput
        )
    return max(measured), sum(measured) / len(measured)


def run(seed: int = 0, iterations: int = 6) -> KnobAblationReport:
    """Run the fixed-vs-dynamic ablation; see the module docstring."""
    catalog = postgres_catalog()
    results: list[ArmResult] = []
    for workload in _workloads(seed):
        for arm in ("fixed", "dynamic"):
            # Fresh, identically-built repository per arm: the live loop
            # uploads samples, and sharing one store would leak the first
            # arm's trajectory into the second's recommendations.
            repository = offline_train(
                catalog, [type(workload)(**_workload_kwargs(workload, seed))],
                n_configs=16, seed=seed + 2,
            )
            tuner = OtterTuneTuner(
                catalog,
                repository,
                memory_limit_mb=6553.6,
                seed=seed + 3,
            )
            if arm == "dynamic":
                tuner.configure(Features(selection=_dynamic_policy()))
            best_tps, mean_tps = _closed_loop(
                tuner,
                type(workload)(**_workload_kwargs(workload, seed)),
                iterations,
                seed + 10,
            )
            if arm == "dynamic":
                selector = tuner.knob_selector
                assert selector is not None
                subspace_size = len(selector.active_knobs(workload.name))
            else:
                subspace_size = len(catalog)
            results.append(
                ArmResult(
                    workload=workload.name,
                    arm=arm,
                    subspace_size=subspace_size,
                    total_knobs=len(catalog),
                    best_tps=best_tps,
                    mean_tps=mean_tps,
                )
            )
    return KnobAblationReport(seed=seed, iterations=iterations, results=results)


def _workload_kwargs(workload: WorkloadGenerator, seed: int) -> dict[str, float]:
    """Constructor kwargs rebuilding *workload* with fresh draw state."""
    return {
        "rps": workload.rps,
        "data_size_gb": workload.data_size_gb,
        "seed": seed + 1,
    }
