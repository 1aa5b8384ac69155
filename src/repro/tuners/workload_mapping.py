"""Workload mapping: find the most similar historical workload.

OtterTune leverages past experience by *mapping* the live target workload
onto the most similar workload in the repository, then reusing that
workload's samples to warm its surrogate. The mapping (Van Aken et al.
§5.2) bins every metric into deciles computed over the whole repository
(making scales comparable), then scores each candidate workload by the
Euclidean distance between binned metric vectors at matching
configurations. §3.2's background-writer detector reuses the same mapping
to pick its disk-latency baseline workload, and §3.2 notes mapping quality
improves as the target accumulates samples — which falls out of this
implementation naturally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tuners.repository import WorkloadDataset, WorkloadRepository

__all__ = ["MappingResult", "WorkloadMapper"]

#: The mapping scores each workload on its newest samples only, at most
#: this many. The nearest-config distance matrix is target window by
#: candidate window, so the window bounds its size (and the mapping's
#: cost) however long a workload's history grows.
MAPPING_WINDOW = 500

#: Target rows per block of the nearest-config search.
_SCORE_BLOCK = 64


@dataclass(frozen=True)
class MappingResult:
    """Outcome of mapping a target workload onto the repository."""

    best_workload_id: str | None

    @property
    def mapped(self) -> bool:
        return self.best_workload_id is not None


class WorkloadMapper:
    """Decile-binned Euclidean workload mapping over a repository."""

    def __init__(self, repository: WorkloadRepository, n_bins: int = 10) -> None:
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        self.repository = repository
        self.n_bins = n_bins
        # Edges and mapping results are pure functions of the repository
        # contents, kept in its derived cache (keys "edges" and ("map",
        # target, exclude)) so every mapper over one store shares them.
        self._namespace = ("mapper", n_bins)

    def _bin_edges(self) -> np.ndarray | None:
        return self.repository.derived(self._namespace, "edges", self._compute_edges)

    def _compute_edges(self) -> np.ndarray | None:
        rows = self.repository.all_metric_rows()
        if len(rows) < 2:
            return None
        quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
        # np.quantile(rows, quantiles, axis=0), bit for bit, from one sort:
        # numpy's linear method reads the sorted neighbours of the virtual
        # index (n-1)q and lerps a+(b-a)t, or b-(b-a)(1-t) where t >= 0.5.
        ordered = np.sort(rows, axis=0)
        virtual = (len(rows) - 1) * quantiles
        below = np.floor(virtual)
        t = (virtual - below)[:, None]
        a = ordered[below.astype(np.intp)]
        b = ordered[below.astype(np.intp) + 1]
        diff = b - a
        return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)

    def _binned(self, metrics: np.ndarray, edges: np.ndarray) -> np.ndarray:
        # Per column, the count of edges strictly below each value: what
        # np.searchsorted(edges[:, col], metrics[:, col]) returns.
        return (edges[None] < metrics[:, None]).sum(axis=1)

    def map_workload(
        self, target_id: str, exclude_target: bool = True
    ) -> MappingResult:
        """Map *target_id* onto the best-matching repository workload.

        For every target sample the candidate's nearest-config sample is
        found (Euclidean in normalised knob space) and the squared
        distance between their decile-binned metric vectors accumulates
        into the candidate's score; lowest mean score wins. Candidates
        without samples — or the target itself, unless
        ``exclude_target=False`` — are skipped.
        """
        return self.repository.derived(
            self._namespace,
            ("map", target_id, exclude_target),
            lambda: self._map_workload(target_id, exclude_target),
        )

    def _capped(self, dataset: WorkloadDataset) -> WorkloadDataset:
        """The dataset's newest :data:`MAPPING_WINDOW` samples."""
        if dataset.size <= MAPPING_WINDOW:
            return dataset
        return WorkloadDataset(
            dataset.workload_id,
            dataset.configs[-MAPPING_WINDOW:],
            dataset.metrics[-MAPPING_WINDOW:],
            dataset.objective[-MAPPING_WINDOW:],
        )

    def _map_workload(
        self, target_id: str, exclude_target: bool
    ) -> MappingResult:
        target = self._capped(self.repository.dataset(target_id))
        candidates = [
            wid
            for wid in self.repository.workload_ids()
            if self.repository.sample_count(wid)
            and not (exclude_target and wid == target_id)
        ]
        if target.size == 0 or not candidates:
            return MappingResult(None)
        # The min of one score is its key whatever the score. Edges need
        # two rows, which only a lone target (exclude_target=False) lacks.
        if len(candidates) == 1 and self.repository.total_samples() >= 2:
            return MappingResult(candidates[0])
        edges = self._bin_edges()
        if edges is None:
            return MappingResult(None)
        target_binned = self._binned(target.metrics, edges)
        scores: dict[str, float] = {}
        for wid in candidates:
            candidate = self._capped(self.repository.dataset(wid))
            scores[wid] = self._score(target, target_binned, candidate, edges)
        return MappingResult(min(scores, key=scores.get))

    def _score(
        self,
        target: WorkloadDataset,
        target_binned: np.ndarray,
        candidate: WorkloadDataset,
        edges: np.ndarray,
    ) -> float:
        if candidate.workload_id == target.workload_id:
            candidate_binned = target_binned
        else:
            candidate_binned = self._binned(candidate.metrics, edges)
        nearest = _nearest_rows(target.configs, candidate.configs)
        deltas = target_binned - candidate_binned[nearest]
        return float(np.mean(np.sum(deltas**2, axis=1)))


def _nearest_rows(targets: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Each target row's nearest candidate row by ``|t|² + |c|² − 2t·c``.

    The cross term is one GEMM (row blocks of it would round differently);
    the distance rows go through one reused block buffer.
    """
    t_sq = np.sum(targets**2, axis=1)
    c_sq = np.sum(candidates**2, axis=1)
    cross = 2.0 * targets @ candidates.T
    nearest = np.empty(len(targets), dtype=np.intp)
    buffer = np.empty((min(_SCORE_BLOCK, len(targets)), len(candidates)))
    for lo in range(0, len(targets), _SCORE_BLOCK):
        block = buffer[: min(_SCORE_BLOCK, len(targets) - lo)]
        np.add(t_sq[lo : lo + _SCORE_BLOCK, None], c_sq, out=block)
        np.subtract(block, cross[lo : lo + _SCORE_BLOCK], out=block)
        nearest[lo : lo + _SCORE_BLOCK] = np.argmin(block, axis=1)
    return nearest
