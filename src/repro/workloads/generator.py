"""Workload generator base classes.

A workload is a set of :class:`~repro.workloads.query.QueryFamily` entries
with relative weights, a nominal request rate and a loaded database size.
Generators produce :class:`WorkloadBatch` values — the realised execution
counts per family over a time window plus a uniform sample of statements
standing in for the streaming query log. The DB simulator costs batches
per-family (``count × footprint``), which keeps the paper's
10 000-requests-per-second experiments cheap to simulate.

The sample is columnar (:class:`~repro.workloads.query.QueryRows`): per
row, a family index and the jittered footprint resources; per family, the
row count. A batch draws the arrival count and the per-family counts
from the generator's stream, then, from a separate log-sample stream,
the sample's family picks and one jitter matrix over the sample and
example rows. It renders no text and draws no parameters. Building a
:class:`~repro.workloads.query.Query` for a row reads the columns and
draws nothing, so which rows a consumer builds can never shift a later
draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.rng import derive_rng, make_rng
from repro.workloads.query import QueryFamily, QueryRows, QueryType, jitter_columns

__all__ = ["WorkloadBatch", "WorkloadGenerator", "MixWorkload"]


@dataclass
class WorkloadBatch:
    """Realised work over one window of simulated time.

    Attributes
    ----------
    workload_name:
        Name of the generating workload (used for workload-mapping keys).
    duration_s:
        Window length in simulated seconds.
    requested_rps:
        Offered load; the database may achieve less.
    counts:
        Executions per family name.
    families:
        Family definitions, keyed by name.
    sampled_queries:
        A uniform sample of statements, standing in for the portion of
        the streaming query log the TDE would read in this window. Its
        ``counts`` are the per-family sample counts, its ``family_index``
        and ``footprints`` the per-row columns.
    family_examples:
        One statement per family that executed this window, in family
        order. The real streaming log contains *every* statement, so
        rare-but-heavy templates are visible to a log scanner even when a
        uniform sample misses them; this field models that coverage.

    Both are :class:`~repro.workloads.query.QueryRows` over read-only
    columns; ``len()`` is the number of rows, and indexing a row builds
    its :class:`~repro.workloads.query.Query` without drawing.
    """

    workload_name: str
    duration_s: float
    requested_rps: float
    counts: dict[str, int]
    families: dict[str, QueryFamily]
    sampled_queries: QueryRows = field(default_factory=QueryRows)
    family_examples: QueryRows = field(default_factory=QueryRows)

    @property
    def total_queries(self) -> int:
        """Total executions across families."""
        return sum(self.counts.values())

    @property
    def write_fraction(self) -> float:
        """Fraction of executions that are writes (0.0 if batch empty)."""
        total = self.total_queries
        if total == 0:
            return 0.0
        writes = sum(
            count
            for name, count in self.counts.items()
            if self.families[name].query_type.is_write
        )
        return writes / total

    def count_by_type(self) -> dict[QueryType, int]:
        """Execution counts aggregated by :class:`QueryType`."""
        out: dict[QueryType, int] = {}
        for name, count in self.counts.items():
            qtype = self.families[name].query_type
            out[qtype] = out.get(qtype, 0) + count
        return out

    def scaled(self, factor: float) -> "WorkloadBatch":
        """A copy with all counts scaled by *factor* (rate modulation).

        The copy shares the (read-only) sample and example rows: they are
        the same log sample, read at a different rate.
        """
        if factor < 0:
            raise ValueError("factor must be >= 0")
        return WorkloadBatch(
            workload_name=self.workload_name,
            duration_s=self.duration_s,
            requested_rps=self.requested_rps * factor,
            counts={name: int(round(c * factor)) for name, c in self.counts.items()},
            families=dict(self.families),
            sampled_queries=self.sampled_queries,
            family_examples=self.family_examples,
        )


class WorkloadGenerator:
    """Base generator: weighted families + rate → batches.

    Subclasses define :attr:`families` (via ``_build_families``) and may
    override :meth:`rate_at` for time-varying arrival rates (the production
    trace does).

    Parameters
    ----------
    name:
        Workload name, e.g. ``"tpcc"``.
    rps:
        Nominal offered request rate.
    data_size_gb:
        Loaded database size; the buffer-pool model compares it against
        ``shared_buffers``.
    seed:
        Seed for all randomness in this generator.
    sample_size:
        Number of sample rows per batch in the query-log sample.
    """

    def __init__(
        self,
        name: str,
        rps: float,
        data_size_gb: float,
        seed: int | np.random.Generator | None = 0,
        sample_size: int = 200,
    ) -> None:
        if rps < 0:
            raise ValueError("rps must be >= 0")
        if data_size_gb <= 0:
            raise ValueError("data_size_gb must be positive")
        self.name = name
        self.rps = rps
        self.data_size_gb = data_size_gb
        self.sample_size = sample_size
        self._rng = make_rng(seed)
        # The log sample draws from its own stream, so the arrival process
        # (and with it every simulated execution) does not depend on how
        # the sample is drawn or how large it is.
        self._sample_rng = derive_rng(self._rng, "log-sample")
        self.families: dict[str, QueryFamily] = {
            fam.name: fam for fam in self._build_families()
        }
        if not self.families:
            raise ValueError("generator defines no query families")
        self._family_list = tuple(self.families.values())
        self._base = np.array([fam.footprint.columns for fam in self._family_list])

    def _build_families(self) -> list[QueryFamily]:
        raise NotImplementedError

    def rate_at(self, time_s: float) -> float:
        """Offered rate at simulated time *time_s*; constant by default."""
        del time_s
        return self.rps

    def batch(self, duration_s: float, start_time_s: float = 0.0) -> WorkloadBatch:
        """Generate the batch for ``[start_time_s, start_time_s + duration_s)``."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        rate = self.rate_at(start_time_s)
        total = self._rng.poisson(rate * duration_s) if rate > 0 else 0
        weights = np.array([fam.weight for fam in self._family_list], dtype=float)
        weight_sum = weights.sum()
        if weight_sum <= 0:
            raise ValueError("family weights sum to zero")
        families = self._family_list
        if total > 0:
            counts = self._rng.multinomial(total, weights / weight_sum)
            sample = self._sample_rng.choice(
                len(families), size=min(self.sample_size, total), p=counts / total
            )
        else:
            counts = np.zeros(len(families), dtype=np.int64)
            sample = np.zeros(0, dtype=np.intp)
        index = np.concatenate([sample, np.flatnonzero(counts)])
        footprints = jitter_columns(self._base[index], self._sample_rng)
        index.flags.writeable = footprints.flags.writeable = False
        n = len(sample)
        return WorkloadBatch(
            workload_name=self.name,
            duration_s=duration_s,
            requested_rps=rate,
            counts=dict(zip(self.families, counts.tolist())),
            families=dict(self.families),
            sampled_queries=QueryRows(families, index[:n], footprints[:n]),
            family_examples=QueryRows(families, index[n:], footprints[n:]),
        )


class MixWorkload(WorkloadGenerator):
    """A workload assembled from an explicit family list.

    Useful in tests and for ad-hoc scenarios; the standard benchmarks
    subclass :class:`WorkloadGenerator` directly.
    """

    def __init__(
        self,
        name: str,
        families: list[QueryFamily],
        rps: float,
        data_size_gb: float,
        seed: int | np.random.Generator | None = 0,
        sample_size: int = 200,
    ) -> None:
        self._families_spec = list(families)
        super().__init__(name, rps, data_size_gb, seed=seed, sample_size=sample_size)

    def _build_families(self) -> list[QueryFamily]:
        return list(self._families_spec)
