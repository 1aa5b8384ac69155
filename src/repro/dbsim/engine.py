"""The simulated relational database service instance.

:class:`SimulatedDatabase` is the substrate standing in for PostgreSQL 9.6
/ MySQL 5.6 in the paper's evaluation. It composes the memory, storage,
write-back, planner and executor models into a single
``run(batch) → ExecutionResult`` step, and exposes the management surface
AutoDBaaS needs: EXPLAIN for the TDE, config apply via reload or restart
(with the §4 crash-on-bad-config behaviour replication relies on), and a
cumulative clock so multi-window experiments are continuous.

The step itself is :func:`step_members`, which steps any number of
instances at once; ``run`` is a call with one member, and
:class:`~repro.dbsim.batch_engine.MemberBatch` calls it for a fleet.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.common.hardware import VMType, vm_type
from repro.common.rng import make_rng
from repro.dbsim.bgwriter import (
    WriteBackParams,
    WriteBackResult,
    WriteBackScheduler,
    run_windows,
)
from repro.dbsim.config import KnobConfiguration, MemoryBudgetError
from repro.dbsim.executor import ExecutionSummary, ServiceTimeCache, run_batch
from repro.dbsim.knobs import catalog_for
from repro.dbsim.memory import SpillReport, buffer_hit_ratio, compute_spills, swap_factor
from repro.dbsim.metrics import MetricsDelta
from repro.dbsim.planner import PlanEstimate, PlannerModel
from repro.dbsim.storage import DiskWindowResult, simulate_device
from repro.workloads.generator import WorkloadBatch
from repro.workloads.query import Query, QueryType

__all__ = [
    "ApplyOutcome",
    "ConfigTerms",
    "DatabaseCrashed",
    "ExecutionResult",
    "SimulatedDatabase",
    "step_members",
]

#: Page sizes per flavor (PostgreSQL 8 KB, InnoDB 16 KB).
_PAGE_KB_BY_FLAVOR = {"postgres": 8.0, "mysql": 16.0}
#: Write-back and spill I/O is coalesced into blocks of this size.
_SEQUENTIAL_BLOCK_KB = 64.0
#: Seconds of unavailability a full process restart costs.
RESTART_DOWNTIME_S = 12.0
#: Post-restart buffer-pool warm-up: hit-ratio multipliers for the first
#: windows after the pool comes back empty.
_COLD_CACHE_FACTORS = (0.3, 0.8)
#: Socket activation keeps the port open but caches requests; the drain
#: afterwards causes "a lot of jitter" (§4) — modelled as degraded seconds.
SOCKET_ACTIVATION_JITTER_S = 6.0
#: ``planner_cost_mean`` is the mean EXPLAIN cost of the sample's first
#: rows.
_PLAN_COST_ROWS = 32
#: Members stepped per chunk. Bounds transient matrix memory at
#: ``chunk × window_seconds`` doubles (~5 MB per matrix at 2048 × 300).
_CHUNK_MEMBERS = 2048
#: Narrowest chunk whose write-back recurrence runs vectorised
#: (:func:`~repro.dbsim.bgwriter.run_windows`); narrower chunks call
#: :meth:`~repro.dbsim.bgwriter.WriteBackScheduler.run_window` per member
#: on Python floats. The numpy loop pays a fixed cost per window second
#: that only amortises over enough members. Recurrence cost per member,
#: 60 s windows, 2-core VM (µs):
#:
#:   members            1     4     8    12    16    25    64
#:   run_window loop   72    63    64    66    65    66    71
#:   run_windows     1438   245   128    88    66    50    22
_VECTOR_MIN_MEMBERS = 16


class DatabaseCrashed(RuntimeError):
    """The database process died (e.g. restart with an over-budget config)."""


@dataclass
class ApplyOutcome:
    """Result of applying a configuration."""

    applied: dict[str, float]
    skipped_restart_required: list[str]
    restarted: bool


@dataclass
class ExecutionResult:
    """Everything observable from one executed window."""

    batch: WorkloadBatch
    config: KnobConfiguration
    start_time_s: float
    duration_s: float
    summary: ExecutionSummary
    metrics: MetricsDelta
    data_disk: DiskWindowResult
    wal_disk: DiskWindowResult
    writeback: WriteBackResult
    spill: SpillReport
    hit_ratio: float
    swap: float

    @property
    def throughput(self) -> float:
        return self.summary.achieved_tps

    @property
    def latency_ms(self) -> float:
        return self.summary.avg_latency_ms


class SimulatedDatabase:
    """One database service instance on one VM.

    Parameters
    ----------
    flavor:
        ``"postgres"`` or ``"mysql"``.
    vm:
        VM type name or :class:`~repro.cloud.vm.VMType`.
    data_size_gb:
        Loaded data volume.
    active_connections:
        Concurrent sessions charged per-connection working areas.
    seed:
        Seed for all stochastic behaviour of this instance.
    """

    def __init__(
        self,
        flavor: str = "postgres",
        vm: str | VMType = "m4.large",
        data_size_gb: float = 20.0,
        active_connections: int = 20,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.flavor = flavor
        self.catalog = catalog_for(flavor)
        self.vm = vm_type(vm) if isinstance(vm, str) else vm
        self.data_size_gb = data_size_gb
        self.active_connections = active_connections
        self._rng = make_rng(seed)
        self.config = KnobConfiguration(self.catalog)
        #: Bumped on every config apply (reload/restart/socket) and heal;
        #: derived per-config state (the executor's service-time memo) is
        #: keyed on it and recomputes only when it moves.
        self.config_epoch = 0
        self._service_cache = ServiceTimeCache()
        self.clock_s = 0.0
        self.crashed = False
        self._scheduler = WriteBackScheduler()
        #: Service-latency multiplier of both devices (1.0 = healthy).
        self._disk_degradation = 1.0
        self._planner = PlannerModel(flavor, "generic", self.vm)
        # Planner models are pure functions of (flavor, workload, vm);
        # reuse one per workload so their per-config memos survive
        # across windows instead of dying with a fresh model every run.
        self._planners: dict[str, PlannerModel] = {"generic": self._planner}
        self._pending_stall_s = 0.0
        self._reloads_this_window = 0
        self._cold_windows = 0

    # -- configuration management ---------------------------------------------

    def apply_config(
        self, new_config: KnobConfiguration, mode: str = "reload"
    ) -> ApplyOutcome:
        """Apply *new_config* via ``"reload"``, ``"restart"`` or ``"socket"``.

        ``reload`` (SIGHUP-style) applies only knobs that do not require a
        restart and adds negligible jitter. ``restart`` applies everything
        at the cost of :data:`RESTART_DOWNTIME_S` seconds of downtime and
        crashes the process if the configuration violates the VM memory
        budget. ``socket`` is restart behind systemd socket activation:
        the port stays open (requests cached) but draining the cache adds
        :data:`SOCKET_ACTIVATION_JITTER_S` seconds of degraded service.
        """
        if self.crashed:
            raise DatabaseCrashed("cannot apply config to a crashed instance")
        if new_config.catalog.flavor != self.flavor:
            raise ValueError(
                f"config flavor {new_config.catalog.flavor!r} != {self.flavor!r}"
            )
        if mode == "reload":
            skipped = [
                k.name
                for k in self.catalog.restart_required_knobs()
                if new_config[k.name] != self.config[k.name]
            ]
            merged = new_config.as_dict()
            for name in skipped:
                merged[name] = self.config[name]
            self.config = KnobConfiguration(self.catalog, merged)
            self.config_epoch += 1
            self._reloads_this_window += 1
            return ApplyOutcome(
                applied={
                    n: v for n, v in merged.items() if n not in skipped
                },
                skipped_restart_required=skipped,
                restarted=False,
            )
        if mode in ("restart", "socket"):
            try:
                new_config.check_memory_budget(
                    self.vm.db_memory_limit_mb, self.active_connections
                )
            except MemoryBudgetError as exc:
                self.crashed = True
                raise DatabaseCrashed(str(exc)) from exc
            self.config = new_config
            self.config_epoch += 1
            # The shutdown checkpoint writes the dirty backlog out before
            # the process exits — a dirty database takes longer to stop.
            shutdown_s = self._scheduler.dirty_backlog_mb / (
                0.8 * self.vm.disk.throughput_mb_s
            )
            self._scheduler.reset()
            self._pending_stall_s += shutdown_s + (
                SOCKET_ACTIVATION_JITTER_S if mode == "socket" else RESTART_DOWNTIME_S
            )
            # The buffer pool comes back empty: the next windows run on a
            # cold cache until the working set is re-read.
            self._cold_windows = len(_COLD_CACHE_FACTORS)
            return ApplyOutcome(
                applied=new_config.as_dict(),
                skipped_restart_required=[],
                restarted=True,
            )
        raise ValueError(f"unknown apply mode {mode!r}")

    def heal(self) -> None:
        """Bring a crashed instance back up (operator intervention)."""
        self.crashed = False
        self.config_epoch += 1
        self._scheduler.reset()
        self._pending_stall_s += RESTART_DOWNTIME_S
        self._cold_windows = len(_COLD_CACHE_FACTORS)

    def set_disk_degradation(self, factor: float) -> None:
        """Scale both devices' service latency (fault injection hook).

        ``factor`` 1.0 restores a healthy disk; > 1.0 models a degrading
        VM volume (the latency multiplier applies to data and WAL devices
        alike, as both live on the instance's virtual disk).
        """
        if factor <= 0:
            raise ValueError("degradation factor must be positive")
        self._disk_degradation = factor

    # -- observation surface ---------------------------------------------------

    def explain(
        self,
        query: Query,
        config: KnobConfiguration | None = None,
        noisy: bool = False,
    ) -> PlanEstimate:
        """EXPLAIN *query* under *config* (default: the live configuration).

        Passing a hypothetical configuration is how the TDE's MDP probes
        planner cost/benefit without touching the live knobs (§3.3). Like
        a real planner, the estimate is deterministic for fixed inputs;
        ``noisy=True`` adds estimation error for consumers that want to
        model stale statistics.
        """
        rng = self._rng if noisy else None
        return self._planner.explain(query, config or self.config, rng=rng)

    def explain_many(
        self,
        queries: list[Query],
        config: KnobConfiguration | None = None,
        noisy: bool = False,
    ) -> list[PlanEstimate]:
        """EXPLAIN each query in *queries* under *config* (default live)."""
        return [self.explain(q, config, noisy) for q in queries]

    # -- execution ---------------------------------------------------------------

    def run(self, batch: WorkloadBatch) -> ExecutionResult:
        """Execute *batch*, advance the clock, and return the observables."""
        return step_members([self], [batch])[0]

    # -- internals ---------------------------------------------------------------

    def _use_planner(self, workload_name: str) -> None:
        """Make the planner of *workload_name* the live one."""
        planner = self._planners.get(workload_name)
        if planner is None:
            planner = PlannerModel(self.flavor, workload_name, self.vm)
            self._planners[workload_name] = planner
        self._planner = planner

    def _assemble_metrics(
        self,
        batch: WorkloadBatch,
        summary: ExecutionSummary,
        spill: SpillReport,
        writeback: WriteBackResult,
        data_result: DiskWindowResult,
        hit_ratio: float,
        swap: float,
        plan_cost: float,
    ) -> MetricsDelta:
        by_type = batch.count_by_type()

        def type_count(*types: QueryType) -> float:
            return float(sum(by_type.get(t, 0) for t in types))

        total_read_mb = sum(
            count * batch.families[name].footprint.read_kb / 1024.0
            for name, count in batch.counts.items()
        )
        blks_total = total_read_mb / (_PAGE_KB_BY_FLAVOR[self.flavor] / 1024.0)
        rows_returned = float(
            sum(
                count * batch.families[name].footprint.rows_returned
                for name, count in batch.counts.items()
            )
        )
        return MetricsDelta(
            {
                "xact_commit": float(batch.total_queries),
                "tup_returned": rows_returned,
                "tup_inserted": type_count(QueryType.INSERT),
                "tup_updated": type_count(QueryType.UPDATE),
                "tup_deleted": type_count(QueryType.DELETE),
                "blks_read": blks_total * (1.0 - hit_ratio),
                "blks_hit": blks_total * hit_ratio,
                "temp_files": float(spill.temp_files),
                "temp_mb": spill.spill_read_write_mb / 2.0,
                "buffers_checkpoint_mb": writeback.checkpoint_write_mb,
                "buffers_clean_mb": writeback.bgwriter_write_mb,
                "buffers_backend_mb": (
                    spill.spill_read_write_mb / 2.0 + writeback.backend_write_mb
                ),
                "backend_flush_mb": writeback.backend_write_mb,
                "checkpoints_timed": float(writeback.checkpoints_timed),
                "checkpoints_requested": float(writeback.checkpoints_requested),
                "wal_mb": float(np.sum(writeback.wal_write_mb_s)),
                "vacuum_mb": writeback.vacuum_write_mb,
                "disk_read_latency_ms": data_result.read_latency.mean(),
                "disk_write_latency_ms": data_result.write_latency.mean(),
                "disk_iops": data_result.iops.mean(),
                "cpu_utilisation": summary.cpu_utilisation,
                "swap_factor": swap,
                "throughput_tps": summary.achieved_tps,
                "avg_latency_ms": summary.avg_latency_ms,
                "planner_cost_mean": plan_cost,
                "planner_distance": self._planner.distance(self.config),
                "window_s": batch.duration_s,
            }
        )


class ConfigTerms(NamedTuple):
    """Window-invariant terms of a member's live configuration.

    A pure function of the configuration, VM, data size and connection
    count, so callers may cache it per ``config_epoch``.
    """

    writeback: WriteBackParams
    buffer_mb: float
    hit_ratio: float
    swap: float

    @staticmethod
    def of(db: SimulatedDatabase) -> ConfigTerms:
        buffer_mb = db.config.buffer_pool_mb()
        return ConfigTerms(
            WriteBackParams.from_config(db.config),
            buffer_mb,
            buffer_hit_ratio(buffer_mb, db.data_size_gb),
            swap_factor(db.config, db.vm, db.active_connections),
        )


def step_members(
    dbs: Sequence[SimulatedDatabase],
    batches: Sequence[WorkloadBatch],
    terms: Sequence[ConfigTerms] | None = None,
) -> list[ExecutionResult]:
    """Step each database through its batch; results in member order.

    The one window step: :meth:`SimulatedDatabase.run` is a batch of one,
    :class:`~repro.dbsim.batch_engine.MemberBatch` a fleet. Members are
    grouped by window length and stepped in chunks over ``(members,
    seconds)`` matrices; restart stalls, cold caches and disk degradation
    are per-member columns. A member's result does not depend on which
    chunk it lands in. Like a serial loop, a crashed member stops the
    step: the members before it advance, then :class:`DatabaseCrashed` is
    raised. *terms* are the members' :class:`ConfigTerms` when the caller
    caches them; they are derived afresh otherwise.
    """
    live = next((m for m, db in enumerate(dbs) if db.crashed), len(dbs))
    by_length: dict[int, list[int]] = {}
    for m in range(live):
        seconds = max(1, int(round(batches[m].duration_s)))
        by_length.setdefault(seconds, []).append(m)
    results: list[ExecutionResult | None] = [None] * live
    for seconds, members in by_length.items():
        for lo in range(0, len(members), _CHUNK_MEMBERS):
            chunk = members[lo : lo + _CHUNK_MEMBERS]
            stepped = _step_chunk(
                [dbs[m] for m in chunk],
                [batches[m] for m in chunk],
                [terms[m] if terms is not None else ConfigTerms.of(dbs[m]) for m in chunk],
                seconds,
            )
            for m, result in zip(chunk, stepped):
                results[m] = result
    if live < len(dbs):
        raise DatabaseCrashed("instance is down")
    return results  # type: ignore[return-value]


def _step_chunk(
    dbs: list[SimulatedDatabase],
    batches: list[WorkloadBatch],
    terms: list[ConfigTerms],
    seconds: int,
) -> list[ExecutionResult]:
    """Step one chunk of live members through windows of *seconds*."""
    spills, dirty_mb, read_mb, hit, stall = [], [], [], [], []
    for db, batch, term in zip(dbs, batches, terms):
        db._use_planner(batch.workload_name)
        spills.append(compute_spills(batch, db.config))
        hit_ratio = term.hit_ratio
        if db._cold_windows > 0:
            hit_ratio *= _COLD_CACHE_FACTORS[len(_COLD_CACHE_FACTORS) - db._cold_windows]
            db._cold_windows -= 1
        hit.append(hit_ratio)
        stall_s = min(db._pending_stall_s, float(seconds))
        db._pending_stall_s -= stall_s
        stall.append(stall_s)
        footprints = [
            (count, batch.families[name].footprint)
            for name, count in batch.counts.items()
        ]
        dirty_mb.append(sum(c * f.write_kb / 1024.0 for c, f in footprints))
        read_mb.append(sum(c * f.read_kb / 1024.0 for c, f in footprints))

    clocks = [db.clock_s for db in dbs]
    writebacks: list[WriteBackResult]
    if len(dbs) < _VECTOR_MIN_MEMBERS:
        writebacks = [
            db._scheduler.run_window(db.config, d, seconds, start_time_s=db.clock_s)
            for db, d in zip(dbs, dirty_mb)
        ]
    else:
        writebacks = run_windows(
            [db._scheduler for db in dbs],
            [t.writeback for t in terms],
            [t.buffer_mb for t in terms],
            dirty_mb,
            seconds,
            clocks,
        )

    # Data-disk demand. Buffer misses are random page reads; spill I/O and
    # write-back are coalesced into large sequential blocks, so they cost
    # bandwidth but few IOPS — the mix real engines produce.
    page_mb = np.array([_PAGE_KB_BY_FLAVOR[db.flavor] / 1024.0 for db in dbs])
    seq_mb = _SEQUENTIAL_BLOCK_KB / 1024.0
    miss_mb_s = np.array(read_mb) * (1.0 - np.array(hit)) / seconds
    spill_half = (np.array([s.spill_read_write_mb for s in spills]) / 2.0) / seconds
    read_mb_s = np.repeat((miss_mb_s + spill_half)[:, None], seconds, axis=1)
    read_iops = np.repeat(
        (miss_mb_s / page_mb + spill_half / seq_mb)[:, None], seconds, axis=1
    )
    write_mb_s = np.array([w.data_write_mb_s for w in writebacks]) + spill_half[:, None]
    # A restart stall silences query-driven traffic at the window start.
    for k, stall_s in enumerate(stall):
        cut = min(int(round(stall_s)), seconds)
        read_mb_s[k, :cut] = write_mb_s[k, :cut] = read_iops[k, :cut] = 0.0
    write_iops = write_mb_s / seq_mb

    disks = [db.vm.disk for db in dbs]
    degradation = [db._disk_degradation for db in dbs]
    rngs = [db._rng for db in dbs]
    data_disk = simulate_device(
        "data",
        disks,
        read_mb_s + write_mb_s,
        read_iops + write_iops,
        degradation,
        clocks,
        rngs,
    )
    # WAL is an append-only sequential stream.
    wal_mb_s = np.array([w.wal_write_mb_s for w in writebacks])
    wal_disk = simulate_device(
        "wal", disks, wal_mb_s, wal_mb_s / seq_mb, degradation, clocks, rngs
    )

    results = []
    for k, (db, batch) in enumerate(zip(dbs, batches)):
        commit_latency = wal_disk[k].write_latency.mean()
        data_latency_factor = max(
            1.0, data_disk[k].write_latency.mean() / db.vm.disk.base_latency_ms
        )
        summary = run_batch(
            batch,
            db.config,
            db.vm,
            hit[k],
            db._planner,
            spills[k],
            commit_latency,
            data_latency_factor,
            terms[k].swap,
            cache=db._service_cache,
            config_epoch=db.config_epoch,
        )
        summary = _charge_disruption(summary, stall[k], seconds)
        plan_cost = db._planner.mean_cost(
            batch.sampled_queries[:_PLAN_COST_ROWS], db.config
        )
        metrics = db._assemble_metrics(
            batch,
            summary,
            spills[k],
            writebacks[k],
            data_disk[k],
            hit[k],
            terms[k].swap,
            plan_cost,
        )
        results.append(
            ExecutionResult(
                batch=batch,
                config=db.config,
                start_time_s=db.clock_s,
                duration_s=float(seconds),
                summary=summary,
                metrics=metrics,
                data_disk=data_disk[k],
                wal_disk=wal_disk[k],
                writeback=writebacks[k],
                spill=spills[k],
                hit_ratio=hit[k],
                swap=terms[k].swap,
            )
        )
        db.clock_s += seconds
        db._reloads_this_window = 0
    return results


def _charge_disruption(
    summary: ExecutionSummary, stall_s: float, duration: int
) -> ExecutionSummary:
    """Scale throughput/latency by the share of the window lost to a stall."""
    if stall_s <= 0.0:
        return summary
    available = max(0.0, 1.0 - stall_s / duration)
    return ExecutionSummary(
        total_queries=summary.total_queries,
        offered_tps=summary.offered_tps,
        achieved_tps=summary.achieved_tps * available,
        avg_latency_ms=summary.avg_latency_ms * (1.0 + stall_s / duration),
        cpu_utilisation=summary.cpu_utilisation,
        demand_cpu_ms=summary.demand_cpu_ms,
    )
