"""Workload-pattern-change detection over query templates.

§1: "Currently there are ways in literature which can suggest changes in
workload patterns [8], [19]. This works use templates (from queries) and
cluster them." The TDE's evaluation (Fig. 14) is about reacting to such
changes; this module provides the template-distribution change signal
itself, so operators can correlate throttles with pattern shifts.

The detector keeps a sliding histogram of template frequencies per window
and scores the drift between consecutive windows with the Hellinger
distance (bounded in [0, 1], defined for non-overlapping supports — a
brand-new template set scores 1).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.workloads.query import QueryRows

__all__ = ["WorkloadChange", "WorkloadChangeDetector", "hellinger_distance"]


def hellinger_distance(p: dict[str, float], q: dict[str, float]) -> float:
    """Hellinger distance between two discrete distributions in [0, 1]."""
    keys = set(p) | set(q)
    if not keys:
        return 0.0
    total = 0.0
    for key in keys:
        total += (math.sqrt(p.get(key, 0.0)) - math.sqrt(q.get(key, 0.0))) ** 2
    return math.sqrt(total / 2.0)


@dataclass(frozen=True)
class WorkloadChange:
    """One detected pattern change."""

    window: int
    distance: float
    appeared: tuple[str, ...]
    disappeared: tuple[str, ...]


class WorkloadChangeDetector:
    """Template-distribution drift detector.

    Parameters
    ----------
    threshold:
        Hellinger distance above which a window counts as a pattern
        change (0 = identical distributions, 1 = disjoint template sets).
    """

    def __init__(self, threshold: float = 0.5) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        self._previous: dict[str, float] | None = None
        self._window = 0
        self.changes: list[WorkloadChange] = []

    @staticmethod
    def _distribution(rows: QueryRows) -> dict[str, float]:
        """Template frequencies of *rows*, from their per-family counts."""
        if not len(rows):
            return {}
        counts: Counter[str] = Counter()
        for family, n in zip(rows.families, rows.counts.tolist()):
            if n:
                counts[family.log_template] += n
        total = len(rows)
        return {template: n / total for template, n in counts.items()}

    def observe_window(self, rows: QueryRows) -> WorkloadChange | None:
        """Feed one window's query sample; returns a change if detected.

        An idle (empty) window neither reports a change nor replaces the
        baseline — otherwise one quiet window would both hide a shift and
        make the next busy window look like one.
        """
        current = self._distribution(rows)
        window = self._window
        self._window += 1
        if not current:
            return None
        previous = self._previous
        self._previous = current
        if previous is None:
            return None
        distance = hellinger_distance(previous, current)
        if distance < self.threshold:
            return None
        change = WorkloadChange(
            window=window,
            distance=distance,
            appeared=tuple(sorted(set(current) - set(previous)))[:8],
            disappeared=tuple(sorted(set(previous) - set(current)))[:8],
        )
        self.changes.append(change)
        return change
