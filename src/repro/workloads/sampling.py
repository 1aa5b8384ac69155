"""Reservoir sampling over streaming query logs (Vitter, 1985).

The TDE selects which query templates to EXPLAIN by reservoir-sampling the
streaming log: every query seen so far has an equal probability of being in
the reservoir, without storing the stream. This is Vitter's Algorithm R;
the classic optimisation (Algorithm X-style skipping) is unnecessary at the
stream rates the simulator produces, so we keep the simple O(1)-per-item
form, which is exact.
"""

from __future__ import annotations

from typing import Generic, TypeVar

import numpy as np

from repro.common.rng import make_rng

T = TypeVar("T")

__all__ = ["ReservoirSampler"]


class ReservoirSampler(Generic[T]):
    """Uniform fixed-size sample over an unbounded stream.

    Parameters
    ----------
    capacity:
        Reservoir size ``k``; after ``n >= k`` observations every item seen
        has probability ``k / n`` of being in :attr:`sample`.
    seed:
        Seed or generator for the replacement draws.
    """

    def __init__(self, capacity: int, seed: int | np.random.Generator | None = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = make_rng(seed)
        self._reservoir: list[T] = []
        self._seen = 0

    def observe(self, item: T) -> None:
        """Offer one stream item to the reservoir."""
        self._seen += 1
        if len(self._reservoir) < self.capacity:
            self._reservoir.append(item)
            return
        # Replace a random slot with probability capacity / seen.
        slot = int(self._rng.integers(0, self._seen))
        if slot < self.capacity:
            self._reservoir[slot] = item

    @property
    def sample(self) -> list[T]:
        """Copy of the current reservoir contents."""
        return list(self._reservoir)

    @property
    def seen(self) -> int:
        """Total number of items observed."""
        return self._seen
