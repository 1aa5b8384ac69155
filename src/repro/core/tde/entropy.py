"""Normalized entropy over query classes, and the §3.1 throttle filter.

Queries are grouped into classes by the knob their execution stresses
(complex aggregations → working memory, index builds/bulk deletes →
maintenance memory, temp-table work → temp buffers, heavy writes → the
background-writer family, point reads → none). A hash table of class
frequencies is kept per observation window and its *normalized Shannon
entropy* (paper eq. 2) summarises how evenly the classes fire:

    η(X) = −Σ p(x_i)·log(p(x_i)) / log(n)   ∈ [0, 1]

**Terminology note.** The paper's prose (§3.1) describes entropy as "less
when ... all queries are fired with similar proportion", which inverts the
standard definition; its *decision rule*, however — escalate to a plan
upgrade when entropy is high *and* the memory knobs sit at their caps — is
exactly standard entropy semantics (an even spread over throttle classes
means tuning one knob cannot stop the throttles). We implement eq. 2 as
written and the decision rule as stated; see DESIGN.md.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.workloads.query import Query, QueryRows

__all__ = [
    "normalized_entropy",
    "classify_footprints",
    "classify_query",
    "QueryClassHistogram",
    "EntropyFilter",
    "QUERY_CLASSES",
]

#: The query classes the §3.1 hash table is keyed by.
QUERY_CLASSES: tuple[str, ...] = (
    "working_memory",
    "maintenance_memory",
    "temp_memory",
    "write_heavy",
    "point",
)

_CLASS_INDEX = {cls: i for i, cls in enumerate(QUERY_CLASSES)}

#: Thresholds (MB / KB) above which a query counts as stressing a class.
_SORT_MB_THRESHOLD = 1.0
_WRITE_KB_THRESHOLD = 8.0


def normalized_entropy(counts: Iterable[float]) -> float:
    """Paper eq. 2: Shannon entropy normalised by log(n) into [0, 1].

    *counts* are non-negative class frequencies; zero-count classes
    contribute nothing (lim p→0 of p·log p). Entropy over fewer than two
    classes — or all-zero counts — is defined as 0.
    """
    values = [c for c in counts if c > 0]
    n = len(values)
    if n <= 1:
        return 0.0
    total = float(sum(values))
    # p underflows to 0.0 for denormal counts next to huge ones; such a
    # class contributes nothing (lim p→0 of p·log p = 0).
    probabilities = [c / total for c in values]
    h = -sum(p * math.log(p) for p in probabilities if p > 0.0)
    return min(1.0, h / math.log(n))


def classify_footprints(footprints: np.ndarray) -> np.ndarray:
    """Each row's query class, as an index into :data:`QUERY_CLASSES`.

    *footprints* has one row per statement and the
    :data:`~repro.workloads.query.FOOTPRINT_COLUMNS` resources as columns.
    A row's class is the knob it stresses most. Priority order follows
    the paper's examples: maintenance operations (index create/drop, bulk
    deletes) and temp-table work are rarer and more diagnostic than
    generic sorts, so they win ties.
    """
    sort_mb, maintenance_mb, temp_mb, _read_kb, write_kb = footprints.T
    classes = np.full(len(footprints), _CLASS_INDEX["point"])
    # Lowest priority first: each rule overrides the ones before it.
    classes[write_kb >= _WRITE_KB_THRESHOLD] = _CLASS_INDEX["write_heavy"]
    classes[sort_mb >= _SORT_MB_THRESHOLD] = _CLASS_INDEX["working_memory"]
    classes[temp_mb > 0.0] = _CLASS_INDEX["temp_memory"]
    classes[maintenance_mb > 0.0] = _CLASS_INDEX["maintenance_memory"]
    return classes


def classify_query(query: Query) -> str:
    """The query class of one query (see :func:`classify_footprints`)."""
    row = np.array([query.footprint.columns])
    return QUERY_CLASSES[int(classify_footprints(row)[0])]


class QueryClassHistogram:
    """The per-window hash table of query-class frequencies (§3.1)."""

    def __init__(self) -> None:
        self._counts = np.zeros(len(QUERY_CLASSES), dtype=np.int64)

    def observe_rows(self, rows: QueryRows) -> None:
        """Classify and count every row of *rows*, from its columns."""
        if len(rows):
            self._counts += np.bincount(
                classify_footprints(rows.footprints), minlength=len(QUERY_CLASSES)
            )

    def counts(self) -> dict[str, int]:
        """Frequencies over all defined classes (zero-filled)."""
        return dict(zip(QUERY_CLASSES, self._counts.tolist()))

    def entropy(self) -> float:
        """Normalized entropy of the class distribution."""
        return normalized_entropy(self._counts.tolist())

    def frequency(self, cls: str) -> float:
        """Relative frequency of *cls* (0 if nothing observed)."""
        total = int(self._counts.sum())
        index = _CLASS_INDEX.get(cls)
        if total == 0 or index is None:
            return 0.0
        return int(self._counts[index]) / total

    def reset(self) -> None:
        self._counts[:] = 0


class EntropyFilter:
    """§3.1's escalation filter over consecutive memory throttles.

    After :attr:`trigger_count` consecutive throttles the entropy of the
    query-class histogram is evaluated:

    - entropy ≥ :attr:`entropy_threshold` **and** the implicated knobs at
      their cap → the throttles cannot be tuned away; escalate to a plan
      upgrade and suppress the tuning request;
    - otherwise → predict the throttles will subside; reset the counter
      and wait for the next :attr:`trigger_count` throttles.
    """

    def __init__(
        self, trigger_count: int = 8, entropy_threshold: float = 0.75
    ) -> None:
        if trigger_count < 1:
            raise ValueError("trigger_count must be >= 1")
        if not 0.0 <= entropy_threshold <= 1.0:
            raise ValueError("entropy_threshold must be in [0, 1]")
        self.trigger_count = trigger_count
        self.entropy_threshold = entropy_threshold
        self._consecutive = 0
        self.last_entropy: float | None = None
        self.entropy_hits = 0

    @property
    def consecutive(self) -> int:
        """Current consecutive-throttle count."""
        return self._consecutive

    def record_quiet_window(self) -> None:
        """A window without memory throttles breaks the streak."""
        self._consecutive = 0

    def should_escalate(
        self, histogram: QueryClassHistogram, knobs_at_cap: bool
    ) -> bool:
        """Record one throttle; True if it should become a plan upgrade.

        Call once per memory throttle raised. Only evaluates entropy at
        every :attr:`trigger_count`-th consecutive throttle, per §3.1's
        "if more than 8 throttles are triggered consecutively".
        """
        self._consecutive += 1
        if self._consecutive < self.trigger_count:
            return False
        self._consecutive = 0
        self.last_entropy = histogram.entropy()
        if self.last_entropy >= self.entropy_threshold and knobs_at_cap:
            self.entropy_hits += 1
            return True
        return False
