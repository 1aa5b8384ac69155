"""A minimal append-only time series used throughout the simulator.

The storage model emits each window's per-second disk series as
``TimeSeries`` values, which the detectors, the experiments and the
benchmark harnesses read: pairs of ``(timestamp_seconds, value)`` with
convenience reductions. Timestamps are simulated seconds, not wall clock.

Storage is a pair of preallocated ``float64`` arrays with doubling
capacity, so the hot operations — a disk model emitting hundreds of
per-second samples per window, a harness concatenating whole windows
into one trace — are array copies instead of per-element list traffic.
Every reduction reads the same float64 values the previous list-backed
implementation produced, so all derived numbers (means that feed metric
vectors, golden-trace bytes) are bit-identical.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

__all__ = ["TimeSeries"]

_INITIAL_CAPACITY = 16


class TimeSeries:
    """Append-only series of ``(time, value)`` samples.

    Parameters
    ----------
    name:
        Metric name, e.g. ``"disk.write_latency_ms"``.
    unit:
        Human-readable unit used by benchmark printouts.
    """

    __slots__ = ("name", "unit", "_buf_t", "_buf_v", "_end")

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self._buf_t: np.ndarray = np.empty(0)
        self._buf_v: np.ndarray = np.empty(0)
        self._end = 0

    # -- internal buffer management -------------------------------------------

    def _reserve(self, extra: int) -> None:
        """Ensure room for *extra* more samples past ``_end``; growth
        doubles capacity."""
        n = self._end
        if n + extra <= len(self._buf_t):
            return
        capacity = max(_INITIAL_CAPACITY, len(self._buf_t))
        while capacity < n + extra:
            capacity *= 2
        new_t = np.empty(capacity)
        new_v = np.empty(capacity)
        new_t[:n] = self._buf_t[:n]
        new_v[:n] = self._buf_v[:n]
        self._buf_t = new_t
        self._buf_v = new_v

    def _times_view(self) -> np.ndarray:
        return self._buf_t[: self._end]

    def _values_view(self) -> np.ndarray:
        return self._buf_v[: self._end]

    @classmethod
    def from_window(
        cls, name: str, unit: str, times: np.ndarray, values: np.ndarray
    ) -> "TimeSeries":
        """Build a series directly from aligned float arrays.

        The fast path for per-window producers (the disk model) whose
        timestamps are monotone by construction; *times* and *values* are
        copied, so callers may keep mutating their arrays.
        """
        if len(times) != len(values):
            raise ValueError("times and values must have the same length")
        out = cls(name, unit)
        out._buf_t = np.array(times, dtype=float)
        out._buf_v = np.array(values, dtype=float)
        out._end = len(out._buf_t)
        return out

    # -- appends ----------------------------------------------------------------

    def append(self, time: float, value: float) -> None:
        """Append one sample; *time* must be >= the last appended time."""
        if self._end and time < self._buf_t[self._end - 1]:
            raise ValueError(
                f"non-monotonic timestamp {time} < "
                f"{self._buf_t[self._end - 1]} in {self.name}"
            )
        self._reserve(1)
        self._buf_t[self._end] = float(time)
        self._buf_v[self._end] = float(value)
        self._end += 1

    def extend(self, samples: Iterable[tuple[float, float]]) -> None:
        """Append many ``(time, value)`` samples in order."""
        for time, value in samples:
            self.append(time, value)

    def extend_series(self, other: "TimeSeries") -> None:
        """Bulk-append every sample of *other*.

        *other*'s samples are already monotone (an append-time invariant),
        so only the boundary needs checking and the copies are two array
        assignments.
        """
        k = len(other)
        if k == 0:
            return
        times = other._times_view()
        if self._end and times[0] < self._buf_t[self._end - 1]:
            raise ValueError(
                f"non-monotonic timestamp {times[0]} < "
                f"{self._buf_t[self._end - 1]}"
                f" in {self.name}"
            )
        self._reserve(k)
        self._buf_t[self._end : self._end + k] = times
        self._buf_v[self._end : self._end + k] = other._values_view()
        self._end += k

    def __len__(self) -> int:
        return self._end

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(
            zip(self._times_view().tolist(), self._values_view().tolist())
        )

    @property
    def times(self) -> np.ndarray:
        """Timestamps as a float array (a copy; callers may mutate it)."""
        return self._times_view().copy()

    @property
    def values(self) -> np.ndarray:
        """Values as a float array (a copy; callers may mutate it)."""
        return self._values_view().copy()

    def mean(self) -> float:
        """Arithmetic mean of the values (0.0 for an empty series)."""
        return float(np.mean(self._values_view())) if len(self) else 0.0

    def max(self) -> float:
        """Maximum value (0.0 for an empty series)."""
        return float(np.max(self._values_view())) if len(self) else 0.0

    def resample_mean(self, bucket_seconds: float) -> "TimeSeries":
        """Bucket the series by *bucket_seconds* and average each bucket."""
        out = TimeSeries(self.name, self.unit)
        if not len(self):
            return out
        bucket_start = float(self._buf_t[0])
        acc: list[float] = []
        for time, value in self:
            if time >= bucket_start + bucket_seconds:
                if acc:
                    out.append(bucket_start, float(np.mean(acc)))
                while time >= bucket_start + bucket_seconds:
                    bucket_start += bucket_seconds
                acc = []
            acc.append(value)
        if acc:
            out.append(bucket_start, float(np.mean(acc)))
        return out

    def __getstate__(self) -> tuple[str, str, np.ndarray, np.ndarray]:
        # Pickle only the live samples: spare capacity is np.empty
        # garbage, and shipping it would make snapshot bytes depend on
        # append history.
        return (self.name, self.unit, self.times, self.values)

    def __setstate__(
        self, state: tuple[str, str, np.ndarray, np.ndarray]
    ) -> None:
        name, unit, times, values = state
        self.name = name
        self.unit = unit
        self._buf_t = np.asarray(times, dtype=float)
        self._buf_v = np.asarray(values, dtype=float)
        self._end = len(self._buf_t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries({self.name!r}, n={len(self)}, mean={self.mean():.3f})"
