"""Query planner cost model and the async/planner knob response surface.

§3.3's premise: for a given workload there exists a latent optimum for the
async/planner-estimate knobs, it is *not* the hardware-derived recommended
static setting, and moving towards it improves both the planner's
cost/benefit estimates and real execution time. We realise that premise
directly: each (flavor, workload) pair gets a deterministic latent optimum
drawn from the knob ranges; execution time and EXPLAIN cost share the same
distance-to-optimum penalty, so the TDE's MDP — which probes EXPLAIN
cost/benefit — learns something that transfers to real performance.

Parallelism is modelled separately via Amdahl's law over the worker-count
knob, with a contention penalty when more workers are requested than the
VM has cores — the "requested workers are not available" failure mode the
paper describes.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.common.hardware import VMType
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.knobs import KnobClass, KnobDef
from repro.dbsim.memory import compute_spills, working_area_knobs
from repro.workloads.query import FOOTPRINT_COLUMNS, Query, QueryFootprint, QueryRows

__all__ = ["PlanEstimate", "PlannerModel", "latent_optimum"]

_CPU_TUPLE_COST = 0.01
_PAGE_KB = 8.0
#: Nominal per-page I/O cost used in EXPLAIN totals (blend of sequential
#: and random fetches; kept knob-independent so costs stay comparable).
_NOMINAL_PAGE_COST = 2.0
#: Knobs treated as worker-count knobs (Amdahl) rather than cost constants.
_PARALLEL_KNOBS = {"max_parallel_workers_per_gather", "innodb_thread_concurrency"}
#: Footprint columns EXPLAIN reads from a query-log sample.
_SORT_COLUMN = FOOTPRINT_COLUMNS.index("sort_mb")
_READ_COLUMN = FOOTPRINT_COLUMNS.index("read_kb")


def _base_cost(
    rows_examined: float | np.ndarray,
    sort_mb: float | np.ndarray,
    read_kb: float | np.ndarray,
) -> float | np.ndarray:
    """EXPLAIN's knob-independent cost: scalars, or arrays over rows."""
    cpu_cost = rows_examined * _CPU_TUPLE_COST + sort_mb * 2.0
    io_cost = (read_kb / _PAGE_KB) * _NOMINAL_PAGE_COST
    return cpu_cost + io_cost


def _hash_unit(*parts: str) -> float:
    """Deterministic float in [0, 1) from string parts."""
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@functools.lru_cache(maxsize=4096)
def _latent_optimum_cached(flavor: str, workload_name: str, knob_name: str,
                           min_value: float, max_value: float) -> float:
    span = max_value - min_value
    base_u = _hash_unit(flavor, knob_name)
    workload_u = _hash_unit(flavor, workload_name, knob_name)
    u = 0.7 * base_u + 0.3 * workload_u
    return min_value + span * (0.1 + 0.8 * u)


def latent_optimum(
    flavor: str, workload_name: str, knob: KnobDef
) -> float:
    """The latent optimal value of *knob* for *workload_name*.

    The optimum is mostly a property of the engine and substrate (a
    flavor-level base drawn once per knob) with a workload-specific
    deviation on top: planner cost constants that are right for one
    workload are *roughly* right for another on the same hardware, which
    is what lets tuner experience transfer across workloads — while §3.3's
    observation that "the optimality changes with respect to change in
    workload pattern" still holds through the deviation term. Both draws
    are deterministic and stay inside the central 80% of the knob range so
    the optimum is always reachable by tuning and never sits on a cap.
    """
    return _latent_optimum_cached(
        flavor, workload_name, knob.name, knob.min_value, knob.max_value
    )


@dataclass(frozen=True, slots=True)
class PlanEstimate:
    """EXPLAIN-style output for one query under one configuration."""

    query_family: str
    total_cost: float
    uses_disk_sort: bool
    uses_disk_maintenance: bool
    uses_disk_temp: bool
    planned_workers: int

    @property
    def uses_disk(self) -> bool:
        """Whether any executor node spills to disk."""
        return self.uses_disk_sort or self.uses_disk_maintenance or self.uses_disk_temp

    def spilled_categories(self) -> set[str]:
        """Working-area categories this plan spills in."""
        out: set[str] = set()
        if self.uses_disk_sort:
            out.add("sort")
        if self.uses_disk_maintenance:
            out.add("maintenance")
        if self.uses_disk_temp:
            out.add("temp")
        return out


class PlannerModel:
    """Planner response surface for one (flavor, workload) pair."""

    def __init__(self, flavor: str, workload_name: str, vm: VMType) -> None:
        self.flavor = flavor
        self.workload_name = workload_name
        self.vm = vm
        # Per-config memos: configurations are immutable and change only
        # on apply, while these quantities are read per query at fleet
        # scale. Keys are the configurations themselves (cached hash).
        self._distance_cache: dict[KnobConfiguration, float] = {}
        self._multiplier_cache: dict[tuple, float] = {}
        self._allowance_cache: dict[
            KnobConfiguration, tuple[float, float, float]
        ] = {}

    def cost_knobs(self, config: KnobConfiguration) -> list[KnobDef]:
        """The planner-estimate knobs (excluding worker-count knobs)."""
        return [
            k
            for k in config.catalog.by_class(KnobClass.ASYNC_PLANNER)
            if k.name not in _PARALLEL_KNOBS
        ]

    def distance(self, config: KnobConfiguration) -> float:
        """Mean normalised distance of the planner knobs from the optimum."""
        cached = self._distance_cache.get(config)
        if cached is not None:
            return cached
        knobs = self.cost_knobs(config)
        if not knobs:
            return 0.0
        total = 0.0
        for knob in knobs:
            optimum = latent_optimum(self.flavor, self.workload_name, knob)
            span = knob.max_value - knob.min_value
            total += abs(config[knob.name] - optimum) / span
        result = total / len(knobs)
        self._distance_cache[config] = result
        return result

    def penalty(self, config: KnobConfiguration, sensitivity: float) -> float:
        """Execution-time multiplier (≥ 1) from planner misestimates.

        Quadratic in the normalised distance: a mildly wrong cost constant
        barely matters, but estimates far from the optimum flip join
        orders and scan choices, and real plan regressions cost multiples
        (scale calibrated so a fully-sensitive query at maximum distance
        runs ~4× slower).
        """
        d = self.distance(config)
        return 1.0 + sensitivity * (1.2 * d + 2.8 * d * d)

    def requested_workers(self, config: KnobConfiguration) -> int:
        """Parallel workers the configuration asks for per query."""
        if self.flavor == "postgres":
            return int(config["max_parallel_workers_per_gather"])
        concurrency = int(config["innodb_thread_concurrency"])
        return self.vm.vcpus if concurrency == 0 else min(concurrency, self.vm.vcpus)

    def parallel_speedup(
        self, config: KnobConfiguration, parallel_fraction: float
    ) -> float:
        """Amdahl speedup (≥ ~1) of a query with *parallel_fraction*.

        Workers beyond ``vcpus - 1`` do not help and add a contention
        penalty, so the worker knob has an interior optimum.
        """
        if parallel_fraction <= 0.0:
            return 1.0
        requested = self.requested_workers(config)
        usable = max(0, min(requested, self.vm.vcpus - 1))
        speedup = 1.0 / ((1.0 - parallel_fraction) + parallel_fraction / (1.0 + usable))
        oversubscription = max(0, requested - (self.vm.vcpus - 1))
        contention = 1.0 + 0.08 * oversubscription
        return speedup / contention

    def time_multiplier(
        self, config: KnobConfiguration, footprint: QueryFootprint
    ) -> float:
        """Combined planner-penalty / parallel-speedup execution multiplier."""
        # sensitivity/parallel_fraction are family constants (jitter never
        # touches them), so this key stays tiny per configuration.
        key = (config, footprint.planner_sensitivity, footprint.parallel_fraction)
        cached = self._multiplier_cache.get(key)
        if cached is not None:
            return cached
        penalty = self.penalty(config, footprint.planner_sensitivity)
        speedup = self.parallel_speedup(config, footprint.parallel_fraction)
        result = penalty / speedup
        self._multiplier_cache[key] = result
        return result

    def explain(
        self,
        query: Query,
        config: KnobConfiguration,
        rng: np.random.Generator | None = None,
        noise: float = 0.03,
    ) -> PlanEstimate:
        """EXPLAIN *query*: estimated cost plus disk-usage flags.

        The estimated cost is a (noisy) affine image of the execution
        model's predicted time under *config* — §3.3's premise is exactly
        that the planner's cost/benefit probes are informative about real
        performance, so the cost must share the execution surface rather
        than use the cost-constant knobs directly (a raw ``EXPLAIN`` total
        is not comparable across different cost constants; a predicted
        runtime is). Disk flags come from comparing the query's
        working-area demands against the current knob allowances, exactly
        like reading "Sort Method: external merge" out of a real plan.
        """
        fp = query.footprint
        cost = _base_cost(fp.rows_examined, fp.sort_mb, fp.read_kb)
        cost *= self.time_multiplier(config, fp)
        if rng is not None and noise > 0.0:
            cost *= float(rng.lognormal(0.0, noise))
        allowances = self._allowance_cache.get(config)
        if allowances is None:
            knobs = working_area_knobs(self.flavor)
            allowances = (
                sum(config[n] for n in knobs.sort),
                sum(config[n] for n in knobs.maintenance),
                sum(config[n] for n in knobs.temp),
            )
            self._allowance_cache[config] = allowances
        sort_allowance, maint_allowance, temp_allowance = allowances
        return PlanEstimate(
            query_family=query.family,
            total_cost=float(cost),
            uses_disk_sort=fp.sort_mb > sort_allowance,
            uses_disk_maintenance=fp.maintenance_mb > maint_allowance,
            uses_disk_temp=fp.temp_mb > temp_allowance,
            planned_workers=(
                self.requested_workers(config) if fp.parallel_fraction > 0 else 0
            ),
        )

    def mean_cost(self, rows: QueryRows, config: KnobConfiguration) -> float:
        """Mean EXPLAIN cost of *rows* under *config* (0.0 for no rows).

        Computed from the rows' columns; equal to the mean of
        :meth:`explain`'s noiseless ``total_cost`` over the rows.
        """
        if not len(rows):
            return 0.0
        families = rows.families
        index = rows.family_index
        rows_examined = np.array(
            [fam.footprint.rows_examined for fam in families], dtype=float
        )
        multiplier = np.array(
            [self.time_multiplier(config, fam.footprint) for fam in families]
        )
        cost = _base_cost(
            rows_examined[index],
            rows.footprints[:, _SORT_COLUMN],
            rows.footprints[:, _READ_COLUMN],
        )
        return float(np.mean(cost * multiplier[index]))


def spill_categories_for_batch(batch, config: KnobConfiguration) -> set[str]:
    """Convenience: which working-area categories spill for *batch*."""
    return compute_spills(batch, config).spilled_categories
