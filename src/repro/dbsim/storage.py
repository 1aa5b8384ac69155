"""Disk model: per-second latency and IOPS arrays from per-second I/O demand.

The storage device is an M/M/1-flavoured queue over a
:class:`~repro.cloud.vm.DiskKind` profile: latency rises hyperbolically
with utilisation, which is what turns checkpoint write bursts into the
disk-latency peaks of Fig. 5 that the background-writer detector measures
the spacing of.

Per §3.2 the paper moves WAL/statistics/log writers to a *separate* disk so
the production-data disk only sees backend reads, background-writer/
checkpoint flushes and vacuum — the engine therefore runs
:func:`simulate_device` once for the ``data`` device and once for the
``wal`` device, routing traffic accordingly.

Each member's :class:`DiskWindowResult` holds row views of the
``(members, seconds)`` latency and IOPS matrices, with no copy and no
timestamps: the window's ``start_time_s`` stamps them where needed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.common.hardware import DiskKind

__all__ = ["DiskWindowResult", "simulate_device"]

_MAX_UTILISATION = 0.97
#: Lognormal sigma of the monitoring agent's latency measurement jitter.
_JITTER_SIGMA = 0.05


@dataclass
class DiskWindowResult:
    """Simulated device behaviour over one window.

    Each field holds one float64 value per second of the window, second
    *i* being the window's ``start_time_s + i``.
    """

    read_latency: np.ndarray
    write_latency: np.ndarray
    iops: np.ndarray


def simulate_device(
    disks: Sequence[DiskKind],
    mb_s: np.ndarray,
    iops: np.ndarray,
    degradation: Sequence[float],
    rngs: Sequence[np.random.Generator] | None = None,
) -> list[DiskWindowResult]:
    """Run one device per row of ``(members, seconds)`` demand matrices.

    Row *k* is member *k*'s device: profile ``disks[k]``, total bandwidth
    demand ``mb_s[k]`` (MB/s) and total IOPS ``iops[k]``, each second.
    Writes queue behind the full demand; reads see a slightly lower
    effective utilisation (reads get priority in real devices'
    schedulers). ``degradation[k]`` scales the member's service latency
    (1.0 is a healthy device). With *rngs*, each member's own stream adds
    multiplicative monitoring jitter: one write draw, then one read draw.
    Member *k*'s result holds row views of the three matrices.
    """
    throughput = np.array([d.throughput_mb_s for d in disks])[:, None]
    max_iops = np.array([d.max_iops for d in disks])[:, None]
    base = np.array([d.base_latency_ms for d in disks])[:, None]
    factor = np.array(degradation, dtype=float)[:, None]
    util = np.minimum(
        np.maximum(mb_s / throughput, iops / max_iops), _MAX_UTILISATION
    )
    # M/M/1 waiting factor, degradation multiplied in before the jitter.
    write_lat = base * (1.0 + util / (1.0 - util)) * factor
    scaled = util * 0.85
    read_lat = base * (1.0 + scaled / (1.0 - scaled)) * factor
    seconds = util.shape[1]
    if rngs is not None:
        for k, rng in enumerate(rngs):
            write_lat[k] *= rng.lognormal(0.0, _JITTER_SIGMA, size=seconds)
            read_lat[k] *= rng.lognormal(0.0, _JITTER_SIGMA, size=seconds)
    return [
        DiskWindowResult(
            read_latency=read_lat[k], write_latency=write_lat[k], iops=iops[k]
        )
        for k in range(len(disks))
    ]
