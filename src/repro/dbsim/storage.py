"""Disk model: latency and IOPS time series from per-second I/O demand.

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
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.common.hardware import DiskKind
from repro.common.timeseries import TimeSeries

__all__ = ["DiskWindowResult", "simulate_device"]

_MAX_UTILISATION = 0.97
#: Lognormal sigma of the monitoring agent's latency measurement jitter.
_JITTER_SIGMA = 0.05


@dataclass
class DiskWindowResult:
    """Simulated device behaviour over one window."""

    read_latency: TimeSeries
    write_latency: TimeSeries
    iops: TimeSeries
    mean_utilisation: float


def simulate_device(
    name: str,
    disks: Sequence[DiskKind],
    mb_s: np.ndarray,
    iops: np.ndarray,
    degradation: Sequence[float],
    start_times: Sequence[float],
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
    Series are stamped ``start_times[k] + 0, 1, …`` under the *name*
    prefix, e.g. ``"data"`` or ``"wal"``.
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
    offsets = np.arange(seconds, dtype=float)
    results = []
    for k, start in enumerate(start_times):
        times = start + offsets
        results.append(
            DiskWindowResult(
                read_latency=TimeSeries.from_window(
                    f"{name}.read_latency_ms", "ms", times, read_lat[k]
                ),
                write_latency=TimeSeries.from_window(
                    f"{name}.write_latency_ms", "ms", times, write_lat[k]
                ),
                iops=TimeSeries.from_window(f"{name}.iops", "ops/s", times, iops[k]),
                mean_utilisation=float(np.mean(util[k])),
            )
        )
    return results
