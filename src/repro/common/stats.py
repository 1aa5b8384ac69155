"""Small statistics helpers shared by detectors and tuners."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of *values*.

    Raises ``ValueError`` on an empty input: every caller in the library
    has a meaningful "no data" branch and should take it explicitly rather
    than receive a silent 0.
    """
    if len(values) == 0:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    return float(np.percentile(np.asarray(values, dtype=float), q))
