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
"""

from __future__ import annotations

import numpy as np

from repro.dbsim.bgwriter import (
    _WAL_AMPLIFICATION,
    CheckpointEvent,
    WriteBackParams,
    WriteBackResult,
    WriteBackScheduler,
)
from repro.dbsim.config import KnobConfiguration
from repro.tuners.lasso import _DEGENERATE, _standardised_problem


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
            result.events.append(CheckpointEvent(now, kind, write_mb, spread_s))
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
