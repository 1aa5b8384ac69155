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
from typing import Any

import numpy as np

from repro.tuners.repository import WorkloadDataset, WorkloadRepository

__all__ = ["MappingResult", "WorkloadMapper"]

@dataclass(frozen=True)
class MappingResult:
    """Outcome of mapping a target workload onto the repository."""

    target_id: str
    best_workload_id: str | None
    scores: dict[str, float]

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
        # Derived state keyed on the repository's version counter: decile
        # edges and mapping results are pure functions of the repository
        # contents, so they stay valid until the next sample lands. The
        # cache lives *on the repository* so every mapper over the same
        # store (each TDE owns one) shares one set of results.
        # Keys: "edges" plus ("map", target, exclude) tuples; values are
        # (repository version, payload) pairs.
        #
        # R009-safe despite being a mutation of a received repository:
        # inside a shard the repository is that worker's pickled copy,
        # and entries are version-keyed pure functions of repository
        # contents — cache state can never change an output.
        cache = repository.derived_cache.setdefault(  # repro: noqa[R009]
            ("mapper", n_bins), {}
        )
        self._cache: dict[Any, tuple[int, Any]] = cache

    def _bin_edges(self) -> np.ndarray | None:
        edges: np.ndarray | None = self.repository.derived_entry(
            self._cache,
            "edges",
            self.repository.total_samples(),
            self._compute_edges,
        )
        return edges

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
        result: MappingResult = self.repository.derived_entry(
            self._cache,
            ("map", target_id, exclude_target),
            self.repository.sample_count(target_id),
            lambda: self._map_workload(target_id, exclude_target),
        )
        return result

    def _capped(self, dataset: WorkloadDataset) -> WorkloadDataset:
        """The dataset, windowed to its most recent samples at scale.

        Beyond the repository's :attr:`exact_refresh_limit` the mapping
        scores only the newest window — keeping the nearest-config
        distance matrix bounded (it is quadratic in the sample count)
        without touching the exact behaviour at bench scales.
        """
        limit = self.repository.exact_refresh_limit
        if dataset.size <= limit:
            return dataset
        return WorkloadDataset(
            dataset.workload_id,
            dataset.configs[-limit:],
            dataset.metrics[-limit:],
            dataset.objective[-limit:],
        )

    def _map_workload(
        self, target_id: str, exclude_target: bool
    ) -> MappingResult:
        target = self._capped(self.repository.dataset(target_id))
        if target.size == 0:
            return MappingResult(target_id, None, {})
        edges = self._bin_edges()
        if edges is None:
            return MappingResult(target_id, None, {})
        target_binned = self._binned(target.metrics, edges)

        scores: dict[str, float] = {}
        for wid in self.repository.workload_ids():
            if exclude_target and wid == target_id:
                continue
            candidate = self._capped(self.repository.dataset(wid))
            if candidate.size == 0:
                continue
            scores[wid] = self._score(
                target, target_binned, candidate, edges
            )
        if not scores:
            return MappingResult(target_id, None, {})
        best = min(scores, key=scores.get)
        return MappingResult(target_id, best, scores)

    def _score(
        self,
        target: WorkloadDataset,
        target_binned: np.ndarray,
        candidate: WorkloadDataset,
        edges: np.ndarray,
    ) -> float:
        candidate_binned = self._binned(candidate.metrics, edges)
        # nearest candidate config per target sample
        diffs = (
            np.sum(target.configs**2, axis=1)[:, None]
            + np.sum(candidate.configs**2, axis=1)[None, :]
            - 2.0 * target.configs @ candidate.configs.T
        )
        nearest = np.argmin(diffs, axis=1)
        deltas = target_binned - candidate_binned[nearest]
        return float(np.mean(np.sum(deltas**2, axis=1)))
