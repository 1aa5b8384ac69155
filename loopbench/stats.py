"""Order statistics the benchmark reports.

Timings are reported as a median and the highest percentile that still
has at least ten samples beyond it; :func:`tail_percentile` refuses a
percentile the sample cannot support instead of reporting a number that
rests on one or two windows.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

__all__ = ["MIN_BEYOND", "samples_beyond", "tail_percentile", "quartiles"]

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest-rank index of quantile *q* among *n* samples."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    return max(1, math.ceil(q * n))


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* sorted samples lie above the nearest-rank *q* one."""
    return n - _rank(n, q)


def tail_percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> float:
    """Nearest-rank quantile *q* of *samples*.

    Raises :class:`ValueError` unless at least *min_beyond* samples lie
    beyond it (for p90 that means at least 100 samples).
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    beyond = samples_beyond(n, q)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need at least {min_beyond}"
        )
    return sorted(samples)[_rank(n, q) - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
