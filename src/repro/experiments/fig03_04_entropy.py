"""Figs. 3–4 — entropy variation under adulterated production SQL.

The paper computes the normalized entropy of the query-class histogram
over successive windows while executing plain TPC-C (scale factor 18,
~21 GB) and TPC-C adulterated with index/delete/temp-table/aggregation
queries at probability 0.8 (Fig. 3) and 0.5 (Fig. 4). Expected shape: the
adulterated workload's class distribution is much more even, so its
entropy sits well above plain TPC-C's and the two series separate; the
separation is driven by adulteration probability.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tde.entropy import QueryClassHistogram
from repro.workloads.adulterated import AdulteratedTPCCWorkload
from repro.workloads.tpcc import TPCCWorkload

__all__ = ["EntropyPoint", "run"]


@dataclass(frozen=True)
class EntropyPoint:
    """Entropy of both workloads at one observation window."""

    window: int
    entropy_tpcc: float
    entropy_adulterated: float


def run(
    adulteration_p: float = 0.8,
    windows: int = 20,
    window_s: float = 60.0,
    seed: int = 0,
) -> list[EntropyPoint]:
    """Entropy series for plain vs adulterated TPC-C."""
    plain = TPCCWorkload(data_size_gb=21.0, seed=seed + 1)
    adulterated = AdulteratedTPCCWorkload(
        adulteration_p, data_size_gb=21.0, seed=seed + 2
    )
    hist_plain = QueryClassHistogram()
    hist_adulterated = QueryClassHistogram()
    points: list[EntropyPoint] = []
    for window in range(windows):
        start = window * window_s
        hist_plain.reset()
        hist_adulterated.reset()
        hist_plain.observe_rows(
            plain.batch(window_s, start_time_s=start).sampled_queries
        )
        hist_adulterated.observe_rows(
            adulterated.batch(window_s, start_time_s=start).sampled_queries
        )
        points.append(
            EntropyPoint(
                window=window,
                entropy_tpcc=hist_plain.entropy(),
                entropy_adulterated=hist_adulterated.entropy(),
            )
        )
    return points


def mean_separation(points: list[EntropyPoint]) -> float:
    """Mean entropy gap (adulterated − plain) across windows."""
    if not points:
        raise ValueError("no entropy points")
    return sum(p.entropy_adulterated - p.entropy_tpcc for p in points) / len(points)
