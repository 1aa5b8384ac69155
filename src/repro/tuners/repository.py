"""Central workload data repository (§2's common data store).

Every tuner instance trains from one shared repository. A workload ``W``
is, per §2, "a set S of N matrices {X_0, X_1, ..., X_{N-1}} where X_{m,i,j}
is the value of a metric m observed when executing a user SQL workload on
database having configuration j and workload identifier i". The
repository stores :class:`~repro.tuners.base.TrainingSample` rows and can
materialise exactly those matrices, so the OtterTune-style mapping code
reads the same shape of data the paper describes.

Tuning agents on database VMs upload new samples here periodically; tuner
services on other IaaS'es fetch them — which in this reproduction is just
shared-object access plus an explicit ``sync``-style API for tests.

The matrices are maintained *incrementally*: each ``add`` vectorises only
the new sample into growing per-workload buffers, so materialising a
dataset after n adds costs O(n) total instead of O(n²) — the difference
between a fleet experiment that finishes and one that does not.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.dbsim.metrics import OTTERTUNE_METRICS
from repro.tuners.base import TrainingSample, config_to_vector

__all__ = ["WorkloadDataset", "WorkloadRepository"]


@dataclass
class WorkloadDataset:
    """All samples of one workload id, as matrices.

    ``configs`` is (n, d) in normalised knob space, ``metrics`` is (n, m)
    in the repository's metric ordering, ``objective`` is (n,) throughput.
    """

    workload_id: str
    configs: np.ndarray
    metrics: np.ndarray
    objective: np.ndarray

    @property
    def size(self) -> int:
        return len(self.objective)


class _GrowingMatrix:
    """Append-only (n, d) float matrix with doubling capacity.

    ``view()`` returns a length-``n`` slice of the backing buffer; appends
    either write past the slice or reallocate, so previously handed-out
    views stay valid snapshots either way.
    """

    __slots__ = ("_buf", "n", "_trim_cache", "_trim_cache_n")

    def __init__(self, width: int) -> None:
        self._buf = np.empty((16, width))
        self.n = 0
        self._trim_cache: np.ndarray | None = None
        self._trim_cache_n = -1

    def append(self, row: np.ndarray) -> None:
        if self.n == len(self._buf):
            grown = np.empty((2 * len(self._buf), self._buf.shape[1]))
            grown[: self.n] = self._buf
            self._buf = grown
        self._buf[self.n] = row
        self.n += 1

    def view(self) -> np.ndarray:
        return self._buf[: self.n]

    def __getstate__(self) -> tuple[np.ndarray, int]:
        # Pickle only the filled rows: the spare capacity is np.empty
        # garbage, and shipping it would make snapshot bytes (shard
        # worker setup, parity digests) depend on allocation history.
        # Rows are append-only, so the trimmed copy stays valid until the
        # row count moves — repeated pickles of an unchanged matrix (the
        # repository is snapshotted per shard at session setup) reuse it.
        if self._trim_cache_n != self.n:
            self._trim_cache = self._buf[: self.n].copy()
            self._trim_cache_n = self.n
        assert self._trim_cache is not None
        return (self._trim_cache, self.n)

    def __setstate__(self, state: tuple[np.ndarray, int]) -> None:
        self._buf, self.n = state
        # The unpickled buffer has no spare rows, so it doubles as its
        # own trimmed snapshot; the first append reallocates anyway.
        self._trim_cache = self._buf
        self._trim_cache_n = self.n


class _WorkloadArrays:
    """Incrementally maintained matrices plus top-samples for one workload."""

    __slots__ = ("configs", "metrics", "objective", "top")

    def __init__(self, config_width: int, metric_width: int) -> None:
        self.configs = _GrowingMatrix(config_width)
        self.metrics = _GrowingMatrix(metric_width)
        self.objective = _GrowingMatrix(1)
        #: Best-objective samples, ordered as a stable descending sort
        #: would order them (earlier-added first among equal objectives).
        self.top: list[TrainingSample] = []

    def append(
        self, sample: TrainingSample, metric_names: tuple[str, ...]
    ) -> None:
        self.configs.append(config_to_vector(sample.config))
        self.metrics.append(sample.metrics.as_vector(metric_names))
        self.objective.append(np.array([sample.objective]))
        objective = sample.objective
        idx = 0
        for idx, kept in enumerate(self.top):  # noqa: B007 - len <= capacity
            if kept.objective < objective:
                break
        else:
            idx = len(self.top)
        self.top.insert(idx, sample)
        del self.top[8:]


class WorkloadRepository:
    """Sample store shared by all tuner instances.

    Parameters
    ----------
    metric_names:
        Which metrics the repository captures per sample. Defaults to the
        OtterTune agent's set — which deliberately lacks planner
        estimates (see :mod:`repro.dbsim.metrics`).
    """

    #: Below this many samples (per the consumer's scale measure) derived
    #: state is recomputed on every version bump — bit-identical to a
    #: cacheless implementation. The default sits above every seeded
    #: figure bench's final sample count, so benches never amortise.
    exact_refresh_limit: int = 4000
    #: Past the exact limit, derived state may be served stale for up to
    #: this many version bumps before a refresh.
    stale_refresh_every: int = 16

    def __init__(self, metric_names: tuple[str, ...] = OTTERTUNE_METRICS) -> None:
        self.metric_names = metric_names
        self._samples: dict[str, list[TrainingSample]] = defaultdict(list)
        self._arrays: dict[str, _WorkloadArrays] = {}
        self._version = 0
        self._total = 0
        # Materialised-matrix caches, each tagged with the sample count it
        # was built from so a bumped version invalidates lazily.
        self._dataset_cache: dict[str, tuple[int, WorkloadDataset]] = {}
        self._metric_rows_cache: tuple[int, np.ndarray] | None = None
        # Scratch space for derived state shared *across* consumers (e.g.
        # every TDE's workload mapper): consumers namespace their keys and
        # tag entries with the version they were computed at.
        self.derived_cache: dict[Any, dict[Any, Any]] = {}

    @property
    def version(self) -> int:
        """Monotonic data version; bumped whenever a sample lands.

        Consumers (the workload mapper's decile bin edges and mapping
        results, the knob selector's subspaces) key their derived state on
        this counter so they recompute only when new samples actually
        arrive instead of on every tuning request.
        """
        return self._version

    def _append(self, sample: TrainingSample) -> None:
        self._samples[sample.workload_id].append(sample)
        arrays = self._arrays.get(sample.workload_id)
        if arrays is None:
            arrays = _WorkloadArrays(
                len(config_to_vector(sample.config)), len(self.metric_names)
            )
            self._arrays[sample.workload_id] = arrays
        arrays.append(sample, self.metric_names)

    def add(self, sample: TrainingSample) -> None:
        """Store one sample (bumps :attr:`version`)."""
        self._append(sample)
        self._version += 1
        self._total += 1

    def add_many(self, samples: list[TrainingSample]) -> None:
        """Store many samples."""
        for sample in samples:
            self.add(sample)

    def workload_ids(self) -> list[str]:
        """Known workload identifiers, insertion order."""
        return list(self._samples)

    def samples(self, workload_id: str) -> list[TrainingSample]:
        """Samples of one workload (empty list if unknown)."""
        return list(self._samples.get(workload_id, []))

    def sample_count(self, workload_id: str) -> int:
        """Number of stored samples for one workload."""
        return len(self._samples.get(workload_id, ()))

    def top_samples(self, workload_id: str, k: int = 3) -> list[TrainingSample]:
        """The *k* best-objective samples, stable-sorted descending.

        Equivalent to ``sorted(samples, key=lambda s: -s.objective)[:k]``
        but maintained incrementally, so fleet-scale consumers (the
        bgwriter detector reads baselines every window) do not re-sort a
        growing history each call.
        """
        arrays = self._arrays.get(workload_id)
        if arrays is None:
            return []
        if k <= len(arrays.top) or len(arrays.top) >= self.sample_count(workload_id):
            return arrays.top[:k]
        rows = self._samples[workload_id]
        return sorted(rows, key=lambda s: -s.objective)[:k]

    def total_samples(self) -> int:
        """Sample count across all workloads."""
        return self._total

    def fresh_enough(self, cached_version: int, scale: int) -> bool:
        """Whether derived state computed at *cached_version* may be served.

        *scale* is the consumer's own size measure (total samples, target
        workload samples, ...). Below :attr:`exact_refresh_limit` the
        answer is exact — only the current version counts. Beyond it, one
        more sample cannot move quantile edges meaningfully, so entries
        may be served for up to
        :attr:`stale_refresh_every` bumps; this bounds derived-model
        refreshes at fleet scale, where dozens of instances share the
        repository and bump the version every window.
        """
        if cached_version == self._version:
            return True
        return (
            scale > self.exact_refresh_limit
            and self._version - cached_version < self.stale_refresh_every
        )

    def derived_entry(
        self,
        cache: dict[Any, tuple[int, Any]],
        key: Any,
        scale: int,
        compute: Callable[[], Any],
    ) -> Any:
        """Version-keyed get-or-compute over a derived-state cache.

        The canonical consumption pattern for :attr:`derived_cache` (and
        any private cache with the same shape): entries are ``(version,
        payload)`` pairs, served while :meth:`fresh_enough` holds for
        *scale* and recomputed — then tagged with the current version —
        otherwise. *compute* must be a pure function of the repository
        contents plus the key, so a cache hit returns exactly what
        recomputing would (the R009 exemption these caches rely on).
        """
        cached = cache.get(key)
        if cached is not None and self.fresh_enough(cached[0], scale):
            return cached[1]
        value = compute()
        cache[key] = (self._version, value)
        return value

    def dataset(self, workload_id: str) -> WorkloadDataset:
        """Materialise one workload's matrices (§2's X matrices).

        Matrices are views into incrementally grown buffers, rebuilt in
        O(new samples); callers must treat the arrays as read-only.
        """
        rows = self._samples.get(workload_id, [])
        if not rows:
            return WorkloadDataset(
                workload_id,
                configs=np.empty((0, 0)),
                metrics=np.empty((0, len(self.metric_names))),
                objective=np.empty(0),
            )
        cached = self._dataset_cache.get(workload_id)
        if cached is not None and cached[0] == len(rows):
            return cached[1]
        arrays = self._arrays[workload_id]
        dataset = WorkloadDataset(
            workload_id,
            arrays.configs.view(),
            arrays.metrics.view(),
            arrays.objective.view()[:, 0],
        )
        self._dataset_cache[workload_id] = (len(rows), dataset)
        return dataset

    def datasets(self) -> dict[str, WorkloadDataset]:
        """All workloads' matrices."""
        return {wid: self.dataset(wid) for wid in self._samples}

    def all_metric_rows(self) -> np.ndarray:
        """Every sample's metric vector stacked, for global binning.

        Cached until the next :attr:`version` bump; treat as read-only.
        The stack reuses the per-workload dataset caches, so a single new
        sample re-vectorises only its own workload's rows.
        """
        if self._metric_rows_cache is not None and (
            self._metric_rows_cache[0] == self._version
        ):
            return self._metric_rows_cache[1]
        parts = [
            self.dataset(wid).metrics
            for wid, samples in self._samples.items()
            if samples
        ]
        if not parts:
            return np.empty((0, len(self.metric_names)))
        stacked = np.vstack(parts)
        self._metric_rows_cache = (self._version, stacked)
        return stacked

    def quality_score(self, workload_id: str) -> float:
        """Mean per-metric coefficient of variation across the samples.

        §1's sample-quality notion made concrete: a workload whose
        captured metrics barely vary across configurations (idle
        production windows) scores near 0; benchmark executions that
        sweep configurations score high.
        """
        dataset = self.dataset(workload_id)
        if dataset.size < 2:
            return 0.0
        means = np.abs(dataset.metrics.mean(axis=0))
        stds = dataset.metrics.std(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cv = np.where(means > 1e-12, stds / means, 0.0)
        return float(np.mean(cv))

    def sync_from(self, other: "WorkloadRepository") -> int:
        """Pull samples present in *other* but not here; return count.

        Stands in for tuning agents uploading new workloads which tuner
        services on different IaaS'es then fetch (§2).
        """
        pulled = 0
        for wid in other.workload_ids():
            have = len(self._samples.get(wid, []))
            rows = other.samples(wid)
            if len(rows) > have:
                for sample in rows[have:]:
                    self._append(sample)
                pulled += len(rows) - have
        if pulled:
            self._version += pulled
            self._total += pulled
        return pulled
