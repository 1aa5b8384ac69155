"""Reference implementations the optimised code in ``src/`` must reproduce.

Each function here is the plain definition of a computation that
``src/`` runs in a faster form. Tests compare the two; nothing in
``src/`` calls these.

- :func:`run_window_per_second` is the write-back recurrence of
  :meth:`repro.dbsim.bgwriter.WriteBackScheduler.run_window`, stepped
  once per simulated second. The event-driven kernel must match it bit
  for bit: results, events, totals and the scheduler's final state.
- :func:`lasso_coordinate_descent` solves the Lasso by cyclic coordinate
  descent on the Gram form (:func:`cd_gram`), the independent check of
  the exact path in :mod:`repro.tuners.lasso`.
- :func:`lasso_path_per_event` is that exact path with one masked numpy
  pass per event; the lean ``_lasso_path`` must match it bit for bit.
- :func:`training_set_always_mapped` builds the OtterTune training set
  by always consulting the workload mapping, then capping; the tuner's
  ``_training_set``, which skips the mapping when the target alone fills
  the cap, must return the same arrays bit for bit.
- :func:`explain_many` and :func:`mean_cost_per_query` EXPLAIN one
  :class:`~repro.workloads.query.Query` at a time and average the
  costs; :func:`probe_per_query` is the planner detector's probe scored
  that way and :func:`spills_per_query` the memory detector's spill
  check, one plan per template. The columnar plan cost
  (:class:`~repro.dbsim.planner.PlanColumns`) and the spill check from
  footprint columns must give the same floats and categories.
- :class:`CatalogMemoryDetector` is the memory detector observing
  through a :class:`TemplateCatalog`, which keys templates on a sha1 id
  and keeps each one's latest example row; the detector's one
  template-to-example dict must give the same throttles, escalations,
  examples and reservoir generator state.
- :func:`spill_mb_per_exec` walks the working-area knobs to find one
  execution's spill volume, and :func:`run_batch_memoised` costs a
  batch from it through :class:`ServiceTimeMemo`, the cross-window memo
  of each family's static service-time terms keyed on a configuration
  epoch. :func:`~repro.dbsim.executor.run_batch`, which reads every
  family's spill from the window's
  :class:`~repro.dbsim.memory.SpillReport` and memoises nothing, must
  give the same summary bit for bit.
- :func:`latency_excluding_vacuum_by_mask` is the bgwriter detector's
  vacuum-slot exclusion as first written (``np.mean`` over a mask built
  one vacuum round at a time); the detector must give the same float.
- :func:`choose_action_by_choice` draws an automaton's action with
  ``rng.choice``; the lean draw in
  :meth:`~repro.core.tde.mdp.LearningAutomaton.choose_action` must pick
  the same actions and leave the generator in the same state.
- :func:`with_values_by_constructor` and :func:`clamped_by_constructor`
  derive a configuration by re-validating every knob through the
  :class:`~repro.dbsim.config.KnobConfiguration` constructor;
  ``with_values`` and ``clamped``, which check only the updates, must
  give equal values, key order, hash and pickle, and raise the same
  errors.
- :func:`recommend_projected` is OtterTune's recommendation with knob
  selection armed, as the separate projected pipeline it was first
  written as: its own candidate draw (:func:`raw_candidates_projected`),
  its own frozen budget repair (:func:`fit_values_to_budget_frozen`,
  :func:`repair_config_frozen_reference`) and its own tail. The one
  ``OtterTuneTuner.recommend`` path, which treats the subspace as a
  column index, must give the same configuration, trace events and
  generator state.
- :func:`step_landscape_serial` advances an
  :class:`~repro.core.service.AutoDBaaS` landscape one window by stepping
  each master just before serving its instance; the two-phase
  :meth:`~repro.core.service.AutoDBaaS.step`, which steps every master in
  one engine call first, must give the same outcomes, trace and nodes.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from repro.core.tde.memory_detector import MemoryThrottleDetector

from repro.dbsim.bgwriter import (
    _WAL_AMPLIFICATION,
    CheckpointEvent,
    WriteBackParams,
    WriteBackResult,
    WriteBackScheduler,
)
from repro.dbsim.config import KnobConfiguration, effective_sessions
from repro.dbsim.executor import (
    _COMMIT_WAIT_FACTOR,
    _CPU_MS_BASE,
    _CPU_MS_PER_ROW,
    _CPU_MS_PER_SORT_MB,
    _SCHEDULER_EFFICIENCY,
    ExecutionSummary,
)
from repro.dbsim.memory import working_area_knobs
from repro.tuners.base import (
    Recommendation,
    boost_throttled_knobs,
    config_to_vector,
    values_to_vectors,
    vector_to_config,
    vectors_to_values,
)
from repro.tuners.gpr import GaussianProcessRegressor
from repro.tuners.lasso import (
    _DEGENERATE,
    _RATE,
    _SPANNED,
    _standardised_problem,
)

if TYPE_CHECKING:
    from collections.abc import Mapping

    from repro.core.service import AutoDBaaS, StepOutcome
    from repro.core.tde.mdp import LearningAutomaton
    from repro.common.hardware import VMType
    from repro.core.tde.planner_detector import PlannerThrottleDetector
    from repro.dbsim.engine import SimulatedDatabase
    from repro.dbsim.knobs import KnobCatalog
    from repro.dbsim.planner import PlanEstimate, PlannerModel
    from repro.tuners.base import TuningRequest
    from repro.tuners.knob_selection import Subspace
    from repro.tuners.ottertune import OtterTuneTuner
    from repro.workloads.generator import WorkloadBatch
    from repro.workloads.query import Query, QueryFootprint, QueryRows


def run_window_per_second(
    sched: WriteBackScheduler,
    config: KnobConfiguration,
    dirty_mb_total: float,
    duration_s: int,
    start_time_s: float = 0.0,
    buffer_mb: float | None = None,
) -> WriteBackResult:
    """``sched.run_window(...)``, one loop iteration per second."""
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if dirty_mb_total < 0:
        raise ValueError("dirty_mb_total must be >= 0")
    if buffer_mb is None:
        buffer_mb = config.buffer_pool_mb()
    dirty_cap_mb = 0.9 * buffer_mb
    params = WriteBackParams.from_config(config)
    dirty_rate = dirty_mb_total / duration_s
    wal_rate = dirty_rate * _WAL_AMPLIFICATION

    data_writes = np.zeros(duration_s)
    wal_writes = np.zeros(duration_s)
    result = WriteBackResult(data_write_mb_s=data_writes, wal_write_mb_s=wal_writes)

    for i in range(duration_s):
        now = start_time_s + i
        sched.dirty_backlog_mb += dirty_rate
        sched.wal_since_checkpoint_mb += wal_rate
        wal_writes[i] += wal_rate
        sched.since_checkpoint_s += 1.0
        sched.since_vacuum_s += 1.0

        # Background writer trickle.
        bg_flush = min(sched.dirty_backlog_mb, params.bg_flush_mb_s)
        sched.dirty_backlog_mb -= bg_flush
        data_writes[i] += bg_flush
        result.bgwriter_write_mb += bg_flush

        # Buffer pool full of dirty pages: backends flush the excess.
        overflow = sched.dirty_backlog_mb - dirty_cap_mb
        if overflow > 0.0:
            sched.dirty_backlog_mb = dirty_cap_mb
            data_writes[i] += overflow
            result.backend_write_mb += overflow

        # Checkpoint trigger checks.
        kind = _checkpoint_kind(sched, params)
        if kind is not None and sched._active_remaining_s <= 0.0:
            spread_s = max(1.0, params.checkpoint_interval_s * params.spread_fraction)
            write_mb = sched.dirty_backlog_mb
            result.events.append(CheckpointEvent(now, kind))
            sched._active_rate_mb_s = write_mb / spread_s
            sched._active_remaining_s = spread_s
            sched.dirty_backlog_mb = 0.0
            sched.wal_since_checkpoint_mb = 0.0
            sched.since_checkpoint_s = 0.0

        # Active checkpoint spread writes.
        if sched._active_remaining_s > 0.0:
            step = min(1.0, sched._active_remaining_s)
            burst = sched._active_rate_mb_s * step
            data_writes[i] += burst
            result.checkpoint_write_mb += burst
            sched._active_remaining_s -= step

        # Vacuum / garbage-collector rounds.
        if sched.since_vacuum_s >= sched.vacuum_interval_s:
            data_writes[i] += sched.vacuum_write_mb
            result.vacuum_write_mb += sched.vacuum_write_mb
            result.vacuum_times.append(now)
            sched.since_vacuum_s = 0.0

    return result


def _checkpoint_kind(sched: WriteBackScheduler, params: WriteBackParams) -> str | None:
    if sched.wal_since_checkpoint_mb >= params.wal_limit_mb:
        return "requested"
    if (
        params.forced_dirty_limit_mb is not None
        and params.forced_dirty_limit_mb > 0.0
        and sched.dirty_backlog_mb >= params.forced_dirty_limit_mb
    ):
        return "forced"
    if sched.since_checkpoint_s >= params.checkpoint_interval_s:
        return "timed"
    return None


def cd_gram(
    gram: np.ndarray,
    corr: np.ndarray,
    alpha: float,
    w: np.ndarray,
    max_iter: int,
    tol: float,
) -> np.ndarray:
    """Cyclic coordinate descent on the Gram formulation (in-place on *w*).

    Minimises ``(1/2n)·||y − Xw||² + alpha·||w||₁`` given ``gram = XᵀX/n``
    and ``corr = Xᵀy/n``. The per-coordinate residual correlation is
    ``corr_j − G_j·w + G_jj·w_j`` — identical to the classic residual
    update, but O(d) per coordinate instead of O(n).
    """
    d = len(corr)
    diag = gram.diagonal()
    active = [j for j in range(d) if diag[j] > _DEGENERATE]
    # ``q`` tracks gram @ w so each coordinate update is one O(d) axpy.
    q = gram @ w
    for _ in range(max_iter):
        max_delta = 0.0
        for j in active:
            dj = diag[j]
            w_old = w[j]
            rho = corr[j] - q[j] + dj * w_old
            w_new = np.sign(rho) * max(abs(rho) - alpha, 0.0) / dj
            if w_new != w_old:
                w[j] = w_new
                q += gram[:, j] * (w_new - w_old)
                max_delta = max(max_delta, abs(w_new - w_old))
        if max_delta < tol:
            break
    return w


def lasso_coordinate_descent(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> np.ndarray:
    """Lasso coefficients for standardised inputs.

    Minimises ``(1/2n)·||y − Xw||² + alpha·||w||₁`` by cyclic coordinate
    descent with soft-thresholding. *x* and *y* are standardised
    internally; returned coefficients are in standardised space (their
    magnitudes are comparable across features, which is all the ranking
    needs).
    """
    xs, ys = _standardised_problem(x, y)
    n, d = xs.shape
    gram = (xs.T @ xs) / n
    corr = (xs.T @ ys) / n
    return cd_gram(gram, corr, float(alpha), np.zeros(d), max_iter, tol)


def lasso_path_per_event(
    gram: np.ndarray, corr: np.ndarray, alphas: np.ndarray
) -> np.ndarray:
    """``_lasso_path(gram, corr, alphas)``, one numpy pass per event.

    The homotopy as first written: every event's join and drop search
    runs as masked array expressions (``np.where`` fills ineligible
    slots with 0.0 and ``argmax`` takes the first maximum), and each
    grid row is filled on its own. The lean path in
    :mod:`repro.tuners.lasso` must return the same matrix bit for bit.
    """
    d = len(corr)
    path = np.zeros((len(alphas), d))
    diag = gram.diagonal()
    eligible = diag > _DEGENERATE
    strength = np.where(eligible, np.abs(corr), 0.0)
    lam = float(strength.max())
    if lam <= 0.0:
        return path
    first = int(strength.argmax())
    active = [first]
    signs = [float(np.sign(corr[first]))]
    inactive_mask = eligible.copy()
    inactive_mask[first] = False
    i = int(np.searchsorted(-alphas, -lam, side="right"))
    max_events = 4 * d + 16
    for event in range(max_events + 1):
        idx = np.array(active)
        s_a = np.array(signs)
        inactive = np.flatnonzero(inactive_mask)
        g_ai = gram[np.ix_(idx, inactive)]
        sol = np.linalg.solve(
            gram[np.ix_(idx, idx)],
            np.column_stack([corr[idx], s_a, g_ai]),
        )
        u, v = sol[:, 0], sol[:, 1]
        # Next event: the largest alpha below ``lam`` where a column
        # joins (``join`` = (column, sign)) or an active one drops
        # (``drop`` = its position in ``active``). None ends the path.
        lam_next = 0.0
        join: tuple[int, float] | None = None
        drop: int | None = None
        if event < max_events:
            p = corr[inactive] - g_ai.T @ u
            a = g_ai.T @ v
            schur = diag[inactive] - np.einsum("ij,ij->j", g_ai, sol[:, 2:])
            free = schur > _SPANNED * diag[inactive]
            for sign in (1.0, -1.0):
                rate = 1.0 - sign * a
                ok = free & (rate > _RATE)
                if ok.any():
                    at = np.where(ok, sign * p / np.where(ok, rate, 1.0), 0.0)
                    k = int(at.argmax())
                    if at[k] > lam_next:
                        lam_next, join = float(at[k]), (int(inactive[k]), sign)
            shrinking = s_a * v < -_RATE
            if len(active) > 1 and shrinking.any():
                at = np.where(shrinking, u / np.where(shrinking, v, 1.0), 0.0)
                k = int(at.argmax())
                if at[k] > lam_next:
                    lam_next, join, drop = float(at[k]), None, k
            lam_next = min(lam_next, lam)
        while i < len(alphas) and alphas[i] > lam_next:
            path[i, idx] = u - alphas[i] * v
            i += 1
        if i == len(alphas):
            break
        if join is not None:
            active.append(join[0])
            signs.append(join[1])
            inactive_mask[join[0]] = False
        elif drop is not None:
            inactive_mask[active.pop(drop)] = True
            signs.pop(drop)
        lam = lam_next
    return path


def training_set_always_mapped(
    tuner: OtterTuneTuner, request: TuningRequest
) -> tuple[np.ndarray, np.ndarray, str | None]:
    """``tuner._training_set(request)`` that always maps, plus the mapping.

    Mapped workload rows first, target rows last, each source's objective
    z-scored on its own, then the most recent ``max_train_samples`` rows.
    Returns ``(x, y, mapped workload id)``.
    """
    repository = tuner.repository
    target = repository.dataset(request.workload_id)
    mapping = tuner._mapper.map_workload(request.workload_id)

    def standardise(y: np.ndarray) -> np.ndarray:
        std = float(np.std(y))
        return (y - float(np.mean(y))) / std if std > 1e-12 else y - float(np.mean(y))

    parts_x: list[np.ndarray] = []
    parts_y: list[np.ndarray] = []
    if mapping.mapped:
        mapped = repository.dataset(mapping.best_workload_id)
        if mapped.size:
            parts_x.append(mapped.configs)
            parts_y.append(standardise(mapped.objective))
    if target.size:
        parts_x.append(target.configs)
        parts_y.append(standardise(target.objective))
    if not parts_x:
        return np.empty((0, len(tuner.catalog))), np.empty(0), mapping.best_workload_id
    x = np.vstack(parts_x)
    y = np.concatenate(parts_y)
    if len(y) > tuner.max_train_samples:
        x = x[-tuner.max_train_samples :]
        y = y[-tuner.max_train_samples :]
    return x, y, mapping.best_workload_id


def explain_many(
    db: SimulatedDatabase,
    queries: list[Query],
    config: KnobConfiguration | None = None,
) -> list[PlanEstimate]:
    """EXPLAIN each query in *queries* under *config* (default live)."""
    return [db.explain(q, config) for q in queries]


def mean_cost_per_query(
    db: SimulatedDatabase, queries: list[Query], config: KnobConfiguration
) -> float:
    """Mean ``total_cost`` of one EXPLAIN per query (0.0 for none)."""
    plans = explain_many(db, queries, config)
    return float(np.mean([p.total_cost for p in plans])) if plans else 0.0


def probe_per_query(
    detector: PlannerThrottleDetector, db: SimulatedDatabase, queries: list[Query]
) -> list[tuple[str, float]]:
    """``detector.probe``, each configuration scored one EXPLAIN per query."""
    if not queries:
        return []
    profitable: list[tuple[str, float]] = []
    base_cost = mean_cost_per_query(db, queries, db.config)
    if base_cost <= 0:
        return []
    for name, automaton in detector.automata.items():
        action = choose_action_by_choice(automaton)
        old_value = db.config[name]
        new_value = automaton.next_value(old_value, action)
        if new_value == old_value:
            automaton.update(action, rewarded=False)
            continue
        candidate = db.config.with_values({name: new_value})
        new_cost = mean_cost_per_query(db, queries, candidate)
        profit = (base_cost - new_cost) / base_cost
        rewarded = profit > detector.profit_threshold
        automaton.update(action, rewarded)
        if rewarded:
            profitable.append((name, profit))
    return profitable


def spills_per_query(
    detector: MemoryThrottleDetector, db: SimulatedDatabase
) -> set[str]:
    """``detector._spills(db)``: EXPLAIN each template's example query."""
    spilled: set[str] = set()
    for rows, row in detector._select_templates():
        spilled.update(db.explain(rows[row]).spilled_categories())
    return spilled


def template_id(template: str) -> str:
    """Stable short identifier for a template string."""
    return hashlib.sha1(template.encode("utf-8")).hexdigest()[:12]


class TemplateCatalog:
    """Templates keyed on :func:`template_id`, each with its latest row."""

    def __init__(self) -> None:
        self.examples: dict[str, tuple[QueryRows, int]] = {}
        # template text -> id: the sha1 is paid once per distinct template.
        self._tid_cache: dict[str, str] = {}

    def observe_rows(self, rows: QueryRows) -> list[str]:
        """Record every row of *rows*; returns their template ids.

        Ids come in the order their templates first appear among the rows.
        Each template's example becomes its last row.
        """
        first_seen: list[str] = []
        latest: dict[str, int] = {}
        for family, _first, last in rows.appearances():
            template = rows.families[family].log_template
            tid = self._tid_cache.get(template)
            if tid is None:
                tid = template_id(template)
                self._tid_cache[template] = tid
            if tid not in latest:
                first_seen.append(tid)
            latest[tid] = max(latest.get(tid, last), last)
        for tid, row in latest.items():
            self.examples[tid] = (rows, row)
        return first_seen


class CatalogMemoryDetector(MemoryThrottleDetector):
    """The memory detector observing through a :class:`TemplateCatalog`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.templates = TemplateCatalog()
        self._seen_templates: set[str] = set()

    def _observe(self, rows: QueryRows) -> None:
        for tid in self.templates.observe_rows(rows):
            if tid not in self._seen_templates:
                self._seen_templates.add(tid)
                self.reservoir.observe(tid)

    def _select_templates(self) -> list[tuple[QueryRows, int]]:
        return [self.templates.examples[tid] for tid in self.reservoir.sample]


def spill_mb_per_exec(footprint: QueryFootprint, config: KnobConfiguration) -> float:
    """Disk MB (write + read-back) one execution spills."""
    knobs = working_area_knobs(config.catalog.flavor)
    allowance = {
        "sort": sum(config[n] for n in knobs.sort),
        "maintenance": sum(config[n] for n in knobs.maintenance),
        "temp": sum(config[n] for n in knobs.temp),
    }
    demand = {
        "sort": footprint.sort_mb,
        "maintenance": footprint.maintenance_mb,
        "temp": footprint.temp_mb,
    }
    spill = sum(max(0.0, demand[c] - allowance[c]) for c in demand)
    return 2.0 * spill


class ServiceTimeMemo:
    """Cross-window memo for the static parts of a family's service time.

    The static terms — CPU cost, the page-miss volume per unit of miss
    ratio, the spill volume and the planner multiplier — are stored per
    ``(workload, family)`` and flushed when the epoch moves; the dynamic
    terms (hit ratio, commit latency, data-disk inflation, swap) are
    replayed on every call.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._epoch: int | None = None
        self._store: dict[tuple[str, str], tuple[float, float, float, bool, float]] = {}

    def service_time_ms(
        self,
        epoch: int,
        workload_name: str,
        family_name: str,
        footprint: QueryFootprint,
        config: KnobConfiguration,
        vm: VMType,
        hit_ratio: float,
        planner: PlannerModel,
        commit_latency_ms: float,
        data_latency_factor: float,
        swap: float,
    ) -> float:
        if epoch != self._epoch:
            self._store.clear()
            self._epoch = epoch
        key = (workload_name, family_name)
        parts = self._store.get(key)
        if parts is None:
            self.misses += 1
            parts = (
                _CPU_MS_BASE
                + footprint.rows_examined * _CPU_MS_PER_ROW
                + footprint.sort_mb * _CPU_MS_PER_SORT_MB,
                footprint.read_kb / 1024.0,
                spill_mb_per_exec(footprint, config),
                footprint.write_kb > 0.0,
                planner.time_multiplier(config, footprint),
            )
            self._store[key] = parts
        else:
            self.hits += 1
        cpu_ms, read_mb, spill_mb, has_commit, multiplier = parts
        miss_mb = read_mb * (1.0 - hit_ratio)
        read_ms = miss_mb / vm.disk.throughput_mb_s * 1000.0 * data_latency_factor
        spill_ms = spill_mb / vm.disk.throughput_mb_s * 1000.0 * data_latency_factor
        commit_ms = 0.0
        if has_commit:
            commit_ms = _COMMIT_WAIT_FACTOR * commit_latency_ms
        return ((cpu_ms + read_ms + spill_ms) * multiplier + commit_ms) * swap


def run_batch_memoised(
    batch: WorkloadBatch,
    config: KnobConfiguration,
    vm: VMType,
    hit_ratio: float,
    planner: PlannerModel,
    commit_latency_ms: float,
    data_latency_factor: float,
    swap: float,
    memo: ServiceTimeMemo,
    epoch: int = 0,
) -> ExecutionSummary:
    """``run_batch`` with every family's spill recomputed through *memo*."""
    total_queries = batch.total_queries
    if total_queries == 0:
        return ExecutionSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    demand_ms = 0.0
    for name, count in batch.counts.items():
        if count == 0:
            continue
        service = memo.service_time_ms(
            epoch,
            batch.workload_name,
            name,
            batch.families[name].footprint,
            config,
            vm,
            hit_ratio,
            planner,
            commit_latency_ms,
            data_latency_factor,
            swap,
        )
        demand_ms += service * count
    capacity_ms = vm.vcpus * batch.duration_s * 1000.0 * _SCHEDULER_EFFICIENCY
    utilisation = min(1.0, demand_ms / capacity_ms) if capacity_ms > 0 else 1.0
    achieved_fraction = min(1.0, capacity_ms / demand_ms) if demand_ms > 0 else 1.0
    base_latency = demand_ms / total_queries
    return ExecutionSummary(
        total_queries=total_queries,
        offered_tps=batch.requested_rps,
        achieved_tps=total_queries * achieved_fraction / batch.duration_s,
        avg_latency_ms=base_latency * (1.0 + 3.0 * utilisation**4),
        cpu_utilisation=utilisation,
        demand_cpu_ms=demand_ms,
    )


def choose_action_by_choice(automaton: LearningAutomaton) -> str:
    """``automaton.choose_action()`` as ``rng.choice`` over the actions."""
    actions = ("increase", "decrease")
    p = [automaton._p[a] for a in actions]
    return str(automaton._rng.choice(actions, p=p))


def latency_excluding_vacuum_by_mask(result, exclusion_s: float) -> float:
    """Mean write latency more than *exclusion_s* from every vacuum round."""
    series = result.data_disk.write_latency
    vacuum_times = result.writeback.vacuum_times
    if not vacuum_times:
        return series.mean()
    times = series.times
    values = series.values
    keep = np.ones(len(times), dtype=bool)
    for v in vacuum_times:
        keep &= np.abs(times - v) > exclusion_s
    if not keep.any():
        return series.mean()
    return float(np.mean(values[keep]))


def with_values_by_constructor(
    config: KnobConfiguration, updates: Mapping[str, float]
) -> KnobConfiguration:
    """``config.with_values(updates)`` validating every merged knob."""
    merged = dict(config._values)
    merged.update(updates)
    return KnobConfiguration(config.catalog, merged)


def clamped_by_constructor(
    config: KnobConfiguration, updates: Mapping[str, float]
) -> KnobConfiguration:
    """``config.clamped(updates)`` validating every merged knob."""
    merged = dict(config._values)
    for name, value in updates.items():
        merged[name] = config.catalog.get(name).clamp(value)
    return KnobConfiguration(config.catalog, merged)


def step_landscape_serial(
    service: AutoDBaaS, window_s: float | None = None
) -> list[StepOutcome]:
    """``service.step(window_s)`` with each master stepped on its own.

    The per-instance loop: heal the master, draw its batch and run it
    through ``ReplicatedService.run``, then serve that instance before
    the next one's master steps.
    """
    window = window_s if window_s is not None else service.window_s
    recorder = service.recorder
    recorder.advance(service.clock_s)
    outcomes = []
    with recorder.span(
        "landscape.window", duration_s=window, fleet=len(service.instances)
    ):
        for managed in service.instances.values():
            replicated = managed.deployment.service
            if replicated.master.crashed:
                replicated.master.heal()
            batch = managed.workload.batch(window, start_time_s=service.clock_s)
            result = replicated.run(batch)
            outcomes.append(service._step_instance(managed, window, result))
        service.balancer.drain(window)
    service.clock_s += window
    recorder.inc("repro_windows_total")
    for instance in service.balancer.instances:
        recorder.set_gauge(
            "repro_tuner_outstanding_seconds",
            instance.outstanding_s,
            tuner=instance.instance_id,
        )
    return outcomes


def fit_values_to_budget_frozen(
    values: np.ndarray,
    catalog: KnobCatalog,
    memory_limit_mb: float,
    frozen: np.ndarray,
    active_connections: int = 1,
) -> np.ndarray:
    """Batched §4 budget repair that never moves the *frozen* columns."""
    (
        buffer_idx,
        buffer_min,
        buffer_max,
        shrink_idx,
        shrink_min,
        shrink_max,
        restart_mask,
    ) = catalog.budget_fit_arrays()
    out = np.array(values, dtype=float, copy=True)
    budget = memory_limit_mb * 0.95
    weights = np.where(restart_mask, 1.0, effective_sessions(active_connections))
    if not frozen[buffer_idx]:
        buffer_mb = np.minimum(out[:, buffer_idx], 0.7 * budget)
        buffer_mb = np.clip(buffer_mb, buffer_min, buffer_max)
        out[:, buffer_idx] = buffer_mb
    else:
        buffer_mb = out[:, buffer_idx]
    allowed = np.maximum(0.0, budget - buffer_mb)
    work = out[:, shrink_idx]
    movable = ~frozen[shrink_idx]
    active = np.ones(len(out), dtype=bool)
    for _ in range(6):
        charge = np.zeros(len(out))
        reducible = np.zeros(len(out))
        for k in range(work.shape[1]):
            charge += work[:, k] * weights[k]
            if movable[k]:
                reducible += (work[:, k] - shrink_min[k]) * weights[k]
        active &= charge > allowed
        active &= reducible > 1e-12
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            shrink = np.minimum(1.0, (charge - allowed) / reducible)
        rows = np.where(active)[0]
        excess = work[rows] - shrink_min
        repaired = np.clip(
            work[rows] - excess * shrink[rows, None], shrink_min, shrink_max
        )
        work[rows] = np.where(movable[None, :], repaired, work[rows])
    out[:, shrink_idx] = work
    return out


def repair_config_frozen_reference(
    config: KnobConfiguration,
    incumbent: KnobConfiguration,
    memory_limit_mb: float,
    active_connections: int,
) -> KnobConfiguration:
    """Scalar repair holding every knob still at *incumbent*'s value."""
    names = config.catalog.names()
    values = np.array([[config[name] for name in names]])
    frozen = np.array([config[name] == incumbent[name] for name in names])
    repaired = fit_values_to_budget_frozen(
        values, config.catalog, memory_limit_mb, frozen, active_connections
    )
    updates = {
        name: float(repaired[0, i])
        for i, name in enumerate(names)
        if repaired[0, i] != values[0, i]
    }
    return config.with_values(updates) if updates else config


def raw_candidates_projected(
    tuner: OtterTuneTuner,
    x: np.ndarray,
    y: np.ndarray,
    incumbent: np.ndarray,
    active: np.ndarray,
) -> np.ndarray:
    """Full-width candidates drawn ``(n, k)`` on the *active* columns only."""
    k = len(active)
    n_random = tuner.n_candidates
    random_part = tuner._rng.uniform(0.0, 1.0, size=(n_random, k))
    best_seen = x[int(np.argmax(y))]
    local_part = np.clip(
        best_seen[active] + tuner._rng.normal(0.0, 0.08, size=(n_random // 5, k)),
        0.0,
        1.0,
    )
    raw_k = np.vstack([random_part, local_part])
    raw = np.tile(incumbent, (len(raw_k), 1))
    raw[:, active] = raw_k
    return raw


def recommend_projected(
    tuner: OtterTuneTuner, request: TuningRequest
) -> Recommendation:
    """``tuner.recommend(request)`` for a workload the selector ranks.

    The selector must not abstain: this is the projected pipeline only.
    """
    x, y = tuner._training_set(request)
    tuner._last_train_size = len(y)
    assert len(y) >= 3, "cold start runs the shared path"
    sub: Subspace | None = tuner._subspace(request)
    assert sub is not None, "an abstaining selector runs the full-space path"
    selector = tuner.knob_selector
    assert selector is not None
    active = np.fromiter(sub.active, dtype=np.intp)
    gpr = GaussianProcessRegressor(length_scale=0.4, noise_variance=0.05).fit(
        x[:, list(sub.active)], y
    )
    catalog = tuner.catalog
    names = catalog.names()
    incumbent = config_to_vector(request.config)
    raw = tuner._shortlisted(
        request, gpr, x, y, raw_candidates_projected(tuner, x, y, incumbent, active),
        active,
    )
    candidates = raw
    if tuner.memory_limit_mb is not None:
        frozen = np.ones(len(catalog), dtype=bool)
        frozen[active] = False
        repaired = fit_values_to_budget_frozen(
            vectors_to_values(raw, catalog),
            catalog,
            tuner.memory_limit_mb,
            frozen,
            tuner.active_connections,
        )
        candidates = values_to_vectors(repaired, catalog)
    scores = gpr.ucb(candidates[:, active], kappa=tuner.kappa)
    tuner.recorder.event(
        "tuner.surrogate",
        instance=request.instance_id,
        source=tuner.name,
        train_samples=len(y),
        candidates=len(candidates),
    )
    tuner.recorder.event(
        "tuner.subspace",
        instance=request.instance_id,
        source=tuner.name,
        workload=request.workload_id,
        active=len(sub.active),
        total=len(names),
        version=sub.version,
        updated=sub.updated,
        automaton_signals=sum(selector.automaton_signals.values()),
    )
    best = int(np.argmax(scores))
    winner = vector_to_config(candidates[best], catalog)
    config = request.config.with_values(
        {names[i]: winner[names[i]] for i in sub.active}
    )
    config = boost_throttled_knobs(config, request)
    if tuner.memory_limit_mb is not None:
        config = repair_config_frozen_reference(
            config, request.config, tuner.memory_limit_mb, tuner.active_connections
        )
    return Recommendation(request.instance_id, config, tuner.name)
