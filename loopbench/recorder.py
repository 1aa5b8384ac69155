"""The benchmark's window recorder.

:class:`WindowRecorder` is passed through the public ``recorder=``
argument of ``fig09.run`` and :class:`repro.AutoDBaaS`. It stamps the
host clock each time the program advances its simulated clock (once per
fleet window) and counts every ``inc`` per window. It records no spans,
events, gauges or histograms, and it is not a
:class:`~repro.obs.trace.TraceRecorder`, so fig09 stays on its untraced
columnar path and every output is what a run without a recorder gives.
An optional *on_advance* hook runs right after each stamp (the
benchmark takes its host-speed calibration sample there).
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.common.recording import Recorder

__all__ = ["WindowRecorder"]


class WindowRecorder(Recorder):
    """Per-window host timestamps and counter totals."""

    __slots__ = ("clock", "on_advance", "stamps", "window_counts")

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        on_advance: Callable[[], object] | None = None,
    ) -> None:
        self.clock = clock
        self.on_advance = on_advance
        #: (simulated seconds, host seconds) at each window start.
        self.stamps: list[tuple[float, float]] = []
        #: Counter totals per window; ``name:outcome`` keys split
        #: counters that carry an ``outcome`` label (DFA applies).
        self.window_counts: list[dict[str, float]] = [{}]

    @property
    def window(self) -> int:
        """Index of the window in progress (-1 before the first)."""
        return len(self.stamps) - 1

    def advance(self, now_s: float) -> None:
        if self.stamps:
            self.window_counts.append({})
        self.stamps.append((now_s, self.clock()))
        if self.on_advance is not None:
            self.on_advance()

    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        counts = self.window_counts[-1]
        counts[name] = counts.get(name, 0.0) + value
        outcome = labels.get("outcome")
        if outcome is not None:
            key = f"{name}:{outcome}"
            counts[key] = counts.get(key, 0.0) + value

    def total(self, name: str, first_window: int = 0) -> float:
        """Sum of counter *name* over windows from *first_window* on."""
        return sum(c.get(name, 0.0) for c in self.window_counts[first_window:])

    def per_window(self, name: str) -> list[int]:
        """Counter *name* for every window, as integers."""
        return [int(c.get(name, 0.0)) for c in self.window_counts]
