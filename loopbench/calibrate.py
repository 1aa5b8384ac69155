"""Host-speed calibration.

Shared hosts change speed under a run: on a 2-core cloud VM the same
seeded work has been measured 1.6x faster in one run than in the next,
and a fixed loop swings 2x within minutes. So before every window the
benchmark times a fixed calibration loop, built from the same kinds of
operations the tuning loop spends its time on (small-array numpy
updates in a Python loop, dict and list churn), and reports every
timing both as measured and scaled to :data:`REFERENCE_MS`: a window
that took ``t`` ms while the loop took ``c`` ms counts
``t * REFERENCE_MS / c`` ms. The loop is the benchmark's own code, so a
change to the program never moves it.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

__all__ = ["REFERENCE_MS", "calibration_ms", "Calibrator"]

#: Calibration time the scaled timings are expressed at (about the
#: fastest a 2-core x86 cloud VM runs :func:`calibration_ms`).
REFERENCE_MS = 0.5

_COEF = np.linspace(0.0, 1.0, 30)
_ROW = np.linspace(0.5, 1.5, 32)[None, :]


def calibration_ms(repeats: int = 3) -> float:
    """Best-of-*repeats* time of the fixed calibration loop, in ms."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        w = np.zeros(30)
        q = np.zeros((30, 32))
        counts: dict[int, int] = {}
        for j in range(60):
            rho = _COEF - w
            w = np.sign(rho) * np.maximum(np.abs(rho) - 0.1, 0.0)
            q += w[:, None] * _ROW
            counts[j % 7] = counts.get(j % 7, 0) + j
            sum([k * 0.5 for k in range(20)])
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


class Calibrator:
    """Takes calibration samples and keeps the host time they cost."""

    def __init__(
        self,
        measure: Callable[[], float] = calibration_ms,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._measure = measure
        self._clock = clock
        #: Calibration time of each sample, ms.
        self.samples: list[float] = []
        #: Host seconds each sample took to take.
        self.spent: list[float] = []

    def sample(self) -> float:
        start = self._clock()
        value = self._measure()
        self.samples.append(value)
        self.spent.append(self._clock() - start)
        return value
