"""Central workload data repository (§2's common data store).

Every tuner instance trains from one shared repository. A workload ``W``
is, per §2, "a set S of N matrices {X_0, X_1, ..., X_{N-1}} where X_{m,i,j}
is the value of a metric m observed when executing a user SQL workload on
database having configuration j and workload identifier i". The
repository stores exactly those matrices, plus each sample's raw knob
values and timestamp to rebuild it from, so the OtterTune-style mapping
code reads the same shape of data the paper describes.

Tuning agents on database VMs upload new samples here periodically; tuner
services on other IaaS'es fetch them — which in this reproduction is just
shared-object access plus an explicit ``sync``-style API for tests.

The matrices are maintained *incrementally*: each ``add`` vectorises only
the new sample into growing per-workload buffers, so materialising a
dataset after n adds costs O(n) total instead of O(n²) — the difference
between a fleet experiment that finishes and one that does not.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from repro.dbsim.config import KnobConfiguration
from repro.dbsim.knobs import KnobCatalog
from repro.dbsim.metrics import METRIC_NAMES, MetricsDelta
from repro.tuners.base import TrainingSample, config_to_vector

__all__ = ["WorkloadDataset", "WorkloadRepository"]

_T = TypeVar("_T")


@dataclass
class WorkloadDataset:
    """All samples of one workload id, as matrices.

    ``configs`` is (n, d) in normalised knob space, ``metrics`` is (n, m)
    in :data:`~repro.dbsim.metrics.METRIC_NAMES` order, ``objective`` is
    (n,) throughput.
    """

    workload_id: str
    configs: np.ndarray
    metrics: np.ndarray
    objective: np.ndarray

    @property
    def size(self) -> int:
        return len(self.objective)


class _GrowingMatrix:
    """Append-only (n, d) float matrix; its spare capacity stays ~n/4.

    ``view()`` returns a length-``n`` slice of the backing buffer; appends
    either write past the slice or reallocate, so previously handed-out
    views stay valid snapshots either way.
    """

    __slots__ = ("_buf", "n")

    def __init__(self, width: int) -> None:
        self._buf = np.empty((16, width))
        self.n = 0

    def append(self, row: np.ndarray | list[float]) -> None:
        if self.n == len(self._buf):
            grown = np.empty((self.n + self.n // 4 + 16, self._buf.shape[1]))
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
        return (self._buf[: self.n].copy(), self.n)

    def __setstate__(self, state: tuple[np.ndarray, int]) -> None:
        self._buf, self.n = state


class _WorkloadArrays:
    """One workload's samples as matrix rows, plus its best few as objects."""

    __slots__ = ("catalog", "configs", "values", "metrics", "objective", "timestamps", "top")

    def __init__(self, catalog: KnobCatalog) -> None:
        self.catalog = catalog
        self.configs = _GrowingMatrix(len(catalog))
        self.values = _GrowingMatrix(len(catalog))
        self.metrics = _GrowingMatrix(len(METRIC_NAMES))
        self.objective = _GrowingMatrix(1)
        self.timestamps = _GrowingMatrix(1)
        #: Best-objective samples, ordered as a stable descending sort
        #: would order them (earlier-added first among equal objectives).
        self.top: list[TrainingSample] = []

    def append(self, sample: TrainingSample) -> None:
        # Raw values first: another catalog's config raises before any row.
        values = [sample.config[name] for name in self.catalog.names()]
        self.configs.append(config_to_vector(sample.config))
        self.values.append(values)
        self.metrics.append(sample.metrics.as_vector())
        self.objective.append([sample.objective])
        self.timestamps.append([sample.timestamp_s])
        objective = sample.objective
        idx = 0
        for idx, kept in enumerate(self.top):  # noqa: B007 - len <= capacity
            if kept.objective < objective:
                break
        else:
            idx = len(self.top)
        self.top.insert(idx, sample)
        del self.top[8:]

    def samples(self, workload_id: str, rows: slice | np.ndarray) -> list[TrainingSample]:
        """The samples at *rows*, equal to those added, values as floats."""
        names = self.catalog.names()
        return [
            TrainingSample(
                workload_id,
                KnobConfiguration(self.catalog, dict(zip(names, values))),
                MetricsDelta(dict(zip(METRIC_NAMES, metrics))),
                timestamp,
            )
            for values, metrics, timestamp in zip(
                self.values.view()[rows].tolist(),
                self.metrics.view()[rows].tolist(),
                self.timestamps.view()[rows, 0].tolist(),
            )
        ]


class WorkloadRepository:
    """Sample store shared by all tuner instances."""

    def __init__(self) -> None:
        self._arrays: dict[str, _WorkloadArrays] = {}
        self._version = 0
        self._total = 0
        # Materialised per-workload matrices, each tagged with the sample
        # count it was built from so a bumped version invalidates lazily.
        self._dataset_cache: dict[str, tuple[int, WorkloadDataset]] = {}
        # Derived state shared *across* consumers (see :meth:`derived`):
        # ``(version, payload)`` entries under one namespace per kind.
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

    def derived(self, namespace: Any, key: Any, compute: Callable[[], _T]) -> _T:
        """*key*'s entry in *namespace* at the current :attr:`version`.

        Every consumer over this store shares these entries: the workload
        mappers (the tuner's and each TDE's) and the bgwriter detectors'
        baselines, so a fleet shard's members compute each once per
        version. *compute* runs on a miss or when the entry was computed
        at an older version; it must be a pure function of the contents
        plus the key. A hit then returns exactly what recomputing would,
        so cache state cannot change an output — which also makes writing
        into a received copy (a shard's pickled repository) safe.
        """
        cache = self.derived_cache.setdefault(namespace, {})
        cached = cache.get(key)
        if cached is not None and cached[0] == self._version:
            value: _T = cached[1]
            return value
        value = compute()
        cache[key] = (self._version, value)
        return value

    def _append(self, sample: TrainingSample) -> None:
        arrays = self._arrays.get(sample.workload_id)
        if arrays is None:
            arrays = _WorkloadArrays(sample.config.catalog)
            self._arrays[sample.workload_id] = arrays
        arrays.append(sample)

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
        return list(self._arrays)

    def samples(self, workload_id: str) -> list[TrainingSample]:
        """Samples of one workload in insertion order (empty if unknown)."""
        arrays = self._arrays.get(workload_id)
        if arrays is None:
            return []
        return arrays.samples(workload_id, slice(None))

    def sample_count(self, workload_id: str) -> int:
        """Number of stored samples for one workload."""
        arrays = self._arrays.get(workload_id)
        return 0 if arrays is None else arrays.objective.n

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
        if k <= len(arrays.top) or len(arrays.top) >= arrays.objective.n:
            return arrays.top[:k]
        order = np.argsort(-arrays.objective.view()[:, 0], kind="stable")
        return arrays.samples(workload_id, order[:k])

    def total_samples(self) -> int:
        """Sample count across all workloads."""
        return self._total

    def dataset(self, workload_id: str) -> WorkloadDataset:
        """Materialise one workload's matrices (§2's X matrices).

        Matrices are views into incrementally grown buffers, rebuilt in
        O(new samples); callers must treat the arrays as read-only.
        """
        arrays = self._arrays.get(workload_id)
        if arrays is None:
            return WorkloadDataset(
                workload_id,
                configs=np.empty((0, 0)),
                metrics=np.empty((0, len(METRIC_NAMES))),
                objective=np.empty(0),
            )
        count = arrays.objective.n
        cached = self._dataset_cache.get(workload_id)
        if cached is not None and cached[0] == count:
            return cached[1]
        dataset = WorkloadDataset(
            workload_id,
            arrays.configs.view(),
            arrays.metrics.view(),
            arrays.objective.view()[:, 0],
        )
        self._dataset_cache[workload_id] = (count, dataset)
        return dataset

    def all_metric_rows(self) -> np.ndarray:
        """Every sample's metric vector stacked, for global binning.

        The stack reuses the per-workload dataset caches, so a single new
        sample re-vectorises only its own workload's rows.
        """
        parts = [self.dataset(wid).metrics for wid in self._arrays]
        if not parts:
            return np.empty((0, len(METRIC_NAMES)))
        return np.vstack(parts)

    def sync_from(self, other: "WorkloadRepository") -> int:
        """Pull samples present in *other* but not here; return count.

        Stands in for tuning agents uploading new workloads which tuner
        services on different IaaS'es then fetch (§2).
        """
        pulled = 0
        for wid, arrays in other._arrays.items():
            have = self.sample_count(wid)
            for sample in arrays.samples(wid, slice(have, None)):
                self._append(sample)
                pulled += 1
        if pulled:
            self._version += pulled
            self._total += pulled
        return pulled
