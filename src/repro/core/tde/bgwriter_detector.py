"""Background-writer throttle detection (§3.2).

The detector compares the live workload's *checkpoint pressure* —
checkpoints per unit time combined with disk write latency — against a
baseline taken from the tuner's experience:

1. the live workload A is mapped onto the most similar historical
   workload B in the shared repository (same mapping the tuner uses);
2. B's baseline is the ratio at its best-throughput sample — the
   configuration a trained tuner recommended — with disk latency read
   back from external monitoring;
3. if A's pressure exceeds B's (with tolerance), the checkpointing
   pattern is worse than the tuner knows is achievable → throttle the
   background-writer knob class.

**Deviation note.** §3.2's text literally divides checkpoints-per-unit-
time *by* disk latency; under that quotient a saturated disk (high
latency) would *suppress* throttles, inverting the detector. We score
checkpoint pressure as the *product* ``rate × latency``, which rises both
when checkpoints fire too often and when their write bursts surge the
disk — the behaviour §3.2's surrounding prose describes. See DESIGN.md.

Vacuum/garbage-collector rounds interfere with checkpoint attribution, so
latency seconds adjacent to vacuum activity are excluded, reproducing the
paper's "neglect the monitoring of checkpointing during the interval when
vacuum/garbage collectors are triggered".

With few samples the mapping is unreliable and the detector may over- or
under-fire; every throttle adds a sample, so precision improves with time
(§3.2's closing observation) — see the mapping ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tde.throttle import Throttle
from repro.dbsim.engine import ExecutionResult
from repro.dbsim.knobs import KnobClass
from repro.tuners.repository import WorkloadRepository
from repro.tuners.workload_mapping import WorkloadMapper

__all__ = ["BgwriterThrottleDetector", "checkpoint_latency_ratio"]

#: Live pressure must exceed baseline by this factor to throttle (guards
#: against monitoring noise).
_RATIO_TOLERANCE = 1.25
#: Seconds around a vacuum round excluded from latency measurement.
_VACUUM_EXCLUSION_S = 2.0
#: Floor for the baseline pressure: a perfectly-tuned system may show no
#: checkpoint writes at all in its measurement window (pressure 0), which
#: must not disable detection — 5% of the WAL volume re-written by
#: checkpoints at 1 ms latency is the weakest pressure still "calm".
_MIN_BASELINE_PRESSURE = 0.05


def checkpoint_latency_ratio(
    checkpoint_write_mb: float, wal_mb: float, disk_latency_ms: float
) -> float:
    """§3.2's checkpoint-pressure score.

    Pressure = (unabsorbed write-back volume / WAL volume) × disk
    latency, both volumes from the same window. "Unabsorbed" = whatever
    the background writer did **not** handle: checkpoint bursts plus
    synchronous backend flushes (a dirty-saturated buffer pool forcing
    backends to write is the same misconfiguration pathology). Three normalisations beyond the
    paper text (see the module docstring): the product with latency
    instead of the literal quotient; volume rather than event count (an
    idle timed checkpoint that wrote nothing is harmless); and WAL
    normalisation, which makes the score *load-invariant* — a baseline
    captured during a 12 000-rps stress session is directly comparable
    with a live 3 300-rps window, because a well-configured write-back
    path absorbs most dirty pages through the background writer at any
    offered rate, while a frantic one funnels them through expensive
    checkpoint bursts.
    """
    if disk_latency_ms <= 0:
        return 0.0
    return (checkpoint_write_mb / max(wal_mb, 1.0)) * disk_latency_ms


@dataclass(frozen=True)
class _Baseline:
    workload_id: str
    ratio: float


class BgwriterThrottleDetector:
    """Checkpoint/latency-ratio detector backed by the tuner repository."""

    def __init__(
        self,
        instance_id: str,
        repository: WorkloadRepository,
        ratio_tolerance: float = _RATIO_TOLERANCE,
    ) -> None:
        self.instance_id = instance_id
        self.repository = repository
        self.ratio_tolerance = ratio_tolerance
        self._mapper = WorkloadMapper(repository)

    def baseline_for(self, workload_id: str) -> _Baseline | None:
        """Baseline ratio from the mapped workload's best sample.

        The best-throughput samples of the mapped workload stand for "the
        most optimal points observed ... the best recommended knob sets
        obtained using a trained GPR"; their checkpoint counts and disk
        write latency metrics give the baseline pressure. The target's own
        history participates in the mapping — the tuner's experience
        includes the live system itself.

        A baseline depends only on the repository contents and the
        workload, so it is kept in the repository's derived cache: every
        detector over one store (a fleet shard's members, which share one
        workload) computes it once per repository version.
        """
        return self.repository.derived(
            ("bgwriter_baseline", self._mapper.n_bins),
            workload_id,
            lambda: self._compute_baseline(workload_id),
        )

    def _compute_baseline(self, workload_id: str) -> _Baseline | None:
        mapping = self._mapper.map_workload(workload_id, exclude_target=False)
        source_id = mapping.best_workload_id
        if source_id is None:
            source_id = workload_id
        top = self.repository.top_samples(source_id, 3)
        if not top:
            return None
        pressures = []
        for sample in top:
            latency = sample.metrics["disk_write_latency_ms"]
            if latency <= 0:
                continue
            pressures.append(
                checkpoint_latency_ratio(
                    sample.metrics["buffers_checkpoint_mb"]
                    + sample.metrics["backend_flush_mb"],
                    sample.metrics["wal_mb"],
                    latency,
                )
            )
        if not pressures:
            return None
        baseline = max(_MIN_BASELINE_PRESSURE, sum(pressures) / len(pressures))
        return _Baseline(workload_id=source_id, ratio=baseline)

    def live_ratio(self, result: ExecutionResult) -> float:
        """The live window's pressure, vacuum slots excluded."""
        latency = self._latency_excluding_vacuum(result)
        wal_mb = float(np.add.reduce(result.writeback.wal_write_mb_s))
        return checkpoint_latency_ratio(
            result.writeback.checkpoint_write_mb
            + result.writeback.backend_write_mb,
            wal_mb,
            latency,
        )

    def inspect(self, result: ExecutionResult) -> list[Throttle]:
        """Detect background-writer throttles for one window.

        With no disk telemetry in the window (monitoring gap) there is no
        latency to score pressure with: answer "no throttle" rather than
        fabricate a ratio from missing data.
        """
        if len(result.data_disk.write_latency) == 0:
            return []
        baseline = self.baseline_for(result.batch.workload_name)
        if baseline is None or baseline.ratio <= 0:
            return []
        live = self.live_ratio(result)
        if live <= baseline.ratio * self.ratio_tolerance:
            return []
        knob_names = tuple(
            k.name for k in result.config.catalog.by_class(KnobClass.BGWRITER)
        )
        return [
            Throttle(
                instance_id=self.instance_id,
                workload_id=result.batch.workload_name,
                knob_class=KnobClass.BGWRITER,
                knobs=knob_names,
                reason=(
                    f"checkpoint/latency ratio {live:.4f} exceeds baseline "
                    f"{baseline.ratio:.4f} of mapped workload "
                    f"{baseline.workload_id!r}"
                ),
                time_s=result.start_time_s + result.duration_s,
            )
        ]

    @staticmethod
    def _latency_excluding_vacuum(result: ExecutionResult) -> float:
        latency = result.data_disk.write_latency
        vacuum_times = result.writeback.vacuum_times
        if vacuum_times:
            times = result.start_time_s + np.arange(len(latency), dtype=float)
            first, *rest = vacuum_times
            keep = np.abs(times - first) > _VACUUM_EXCLUSION_S
            for v in rest:
                keep &= np.abs(times - v) > _VACUUM_EXCLUSION_S
            if keep.any():
                latency = latency[keep]
        # np.mean's own arithmetic (the pairwise sum, then one division)
        # without its per-call overhead.
        return float(np.add.reduce(latency)) / len(latency)
