"""Background writer / checkpointer / vacuum write-back scheduling.

§3.2's causal chain: queries dirty pages; the background writer flushes a
fixed trickle; whatever backlog remains is written in bursts when a
checkpoint triggers (timed, or requested when WAL volume exceeds its cap).
Those bursts saturate the data disk and produce the latency peaks the
background-writer detector measures. Vacuum adds its own periodic bursts,
which the paper schedules deliberately so checkpoint monitoring can ignore
the slots where vacuum runs.

The scheduler keeps state across windows (dirty backlog, WAL since last
checkpoint, active checkpoint spread) so multi-window experiments behave
like one continuous database.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.dbsim.config import KnobConfiguration

__all__ = [
    "CheckpointEvent",
    "WriteBackParams",
    "WriteBackResult",
    "WriteBackScheduler",
    "run_windows",
]

_PG_PAGE_MB = 8.0 / 1024.0
_MYSQL_PAGE_MB = 16.0 / 1024.0
#: WAL bytes per dirty data byte (headers, full-page images amortised).
_WAL_AMPLIFICATION = 1.1
#: MySQL 5.6 has no timed checkpoint; model an infrequent sharp sync.
_MYSQL_SYNC_INTERVAL_S = 600.0
_MYSQL_SPREAD_FRACTION = 0.3


@dataclass(frozen=True)
class CheckpointEvent:
    """One checkpoint trigger."""

    time_s: float
    kind: str  # "timed" or "requested" (WAL-full) or "forced" (dirty pct)
    write_mb: float
    spread_s: float


@dataclass(frozen=True)
class WriteBackParams:
    """Flavor-independent write-back parameters extracted from a config."""

    bg_flush_mb_s: float
    checkpoint_interval_s: float
    wal_limit_mb: float
    spread_fraction: float
    forced_dirty_limit_mb: float | None

    @staticmethod
    def from_config(config: KnobConfiguration) -> "WriteBackParams":
        flavor = config.catalog.flavor
        if flavor == "postgres":
            rounds_per_s = 1000.0 / config["bgwriter_delay"]
            return WriteBackParams(
                bg_flush_mb_s=config["bgwriter_lru_maxpages"] * _PG_PAGE_MB * rounds_per_s,
                checkpoint_interval_s=config["checkpoint_timeout"],
                wal_limit_mb=config["max_wal_size"],
                spread_fraction=config["checkpoint_completion_target"],
                forced_dirty_limit_mb=None,
            )
        if flavor == "mysql":
            io_capacity_mb_s = config["innodb_io_capacity"] * _MYSQL_PAGE_MB
            cleaner_mb_s = config["innodb_lru_scan_depth"] * _MYSQL_PAGE_MB / 4.0
            # flush_neighbors amplifies each flush on page-cluster writes.
            amplification = 1.0 + 0.15 * config["innodb_flush_neighbors"]
            return WriteBackParams(
                # The page cleaner scans lru_scan_depth pages/s but its
                # flushing is budgeted by innodb_io_capacity.
                bg_flush_mb_s=min(io_capacity_mb_s, cleaner_mb_s) / amplification
                if cleaner_mb_s > 0
                else io_capacity_mb_s / amplification,
                checkpoint_interval_s=_MYSQL_SYNC_INTERVAL_S,
                wal_limit_mb=config["innodb_log_file_size"],
                spread_fraction=_MYSQL_SPREAD_FRACTION,
                forced_dirty_limit_mb=(
                    config["innodb_max_dirty_pages_pct"]
                    * config["innodb_buffer_pool_size"]
                ),
            )
        raise ValueError(f"unknown DBMS flavor {flavor!r}")


@dataclass
class WriteBackResult:
    """Per-second write demand plus checkpoint accounting for one window."""

    data_write_mb_s: np.ndarray
    wal_write_mb_s: np.ndarray
    events: list[CheckpointEvent] = field(default_factory=list)
    bgwriter_write_mb: float = 0.0
    checkpoint_write_mb: float = 0.0
    vacuum_write_mb: float = 0.0
    backend_write_mb: float = 0.0
    vacuum_times: list[float] = field(default_factory=list)

    @property
    def checkpoints_timed(self) -> int:
        return sum(1 for e in self.events if e.kind == "timed")

    @property
    def checkpoints_requested(self) -> int:
        return sum(1 for e in self.events if e.kind in ("requested", "forced"))


class WriteBackScheduler:
    """Stateful dirty-page write-back simulation.

    Parameters
    ----------
    vacuum_interval_s:
        Seconds between vacuum/garbage-collector rounds. §3.2's
        experiments increase this frequency "to a substantially higher
        value" so checkpoint monitoring can exclude vacuum slots; expose
        it so that experiment is reproducible.
    vacuum_write_mb:
        Data written per vacuum round (index updates + defragmentation).
    """

    def __init__(
        self, vacuum_interval_s: float = 120.0, vacuum_write_mb: float = 24.0
    ) -> None:
        if vacuum_interval_s <= 0:
            raise ValueError("vacuum_interval_s must be positive")
        self.vacuum_interval_s = vacuum_interval_s
        self.vacuum_write_mb = vacuum_write_mb
        self.dirty_backlog_mb = 0.0
        self.wal_since_checkpoint_mb = 0.0
        self.since_checkpoint_s = 0.0
        self.since_vacuum_s = 0.0
        self._active_rate_mb_s = 0.0
        self._active_remaining_s = 0.0

    def reset(self) -> None:
        """Forget all backlog state (fresh database)."""
        self.dirty_backlog_mb = 0.0
        self.wal_since_checkpoint_mb = 0.0
        self.since_checkpoint_s = 0.0
        self.since_vacuum_s = 0.0
        self._active_rate_mb_s = 0.0
        self._active_remaining_s = 0.0

    def run_window(
        self,
        config: KnobConfiguration,
        dirty_mb_total: float,
        duration_s: int,
        start_time_s: float = 0.0,
        buffer_mb: float | None = None,
    ) -> WriteBackResult:
        """Advance the scheduler over a window producing *dirty_mb_total*.

        Dirty pages are produced uniformly across the window; the method
        returns the second-by-second write demand the storage model turns
        into latency.

        Dirty pages live in the buffer pool, so the backlog is capped at
        90% of *buffer_mb* (defaults to the configuration's buffer-pool
        knob): whatever the background writer and checkpointer cannot
        absorb is flushed synchronously by the backends themselves
        (``backend_write_mb``) — deferring write-back has bounded benefit,
        exactly as in a real engine.
        """
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
            self.dirty_backlog_mb += dirty_rate
            self.wal_since_checkpoint_mb += wal_rate
            wal_writes[i] += wal_rate
            self.since_checkpoint_s += 1.0
            self.since_vacuum_s += 1.0

            # Background writer trickle.
            bg_flush = min(self.dirty_backlog_mb, params.bg_flush_mb_s)
            self.dirty_backlog_mb -= bg_flush
            data_writes[i] += bg_flush
            result.bgwriter_write_mb += bg_flush

            # Buffer pool full of dirty pages: backends flush the excess.
            overflow = self.dirty_backlog_mb - dirty_cap_mb
            if overflow > 0.0:
                self.dirty_backlog_mb = dirty_cap_mb
                data_writes[i] += overflow
                result.backend_write_mb += overflow

            # Checkpoint trigger checks.
            kind = self._checkpoint_kind(params)
            if kind is not None and self._active_remaining_s <= 0.0:
                spread_s = max(
                    1.0, params.checkpoint_interval_s * params.spread_fraction
                )
                write_mb = self.dirty_backlog_mb
                result.events.append(
                    CheckpointEvent(now, kind, write_mb, spread_s)
                )
                self._active_rate_mb_s = write_mb / spread_s
                self._active_remaining_s = spread_s
                self.dirty_backlog_mb = 0.0
                self.wal_since_checkpoint_mb = 0.0
                self.since_checkpoint_s = 0.0

            # Active checkpoint spread writes.
            if self._active_remaining_s > 0.0:
                step = min(1.0, self._active_remaining_s)
                burst = self._active_rate_mb_s * step
                data_writes[i] += burst
                result.checkpoint_write_mb += burst
                self._active_remaining_s -= step

            # Vacuum / garbage-collector rounds.
            if self.since_vacuum_s >= self.vacuum_interval_s:
                data_writes[i] += self.vacuum_write_mb
                result.vacuum_write_mb += self.vacuum_write_mb
                result.vacuum_times.append(now)
                self.since_vacuum_s = 0.0

        return result

    def _checkpoint_kind(self, params: WriteBackParams) -> str | None:
        if self.wal_since_checkpoint_mb >= params.wal_limit_mb:
            return "requested"
        if (
            params.forced_dirty_limit_mb is not None
            and params.forced_dirty_limit_mb > 0.0
            and self.dirty_backlog_mb >= params.forced_dirty_limit_mb
        ):
            return "forced"
        if self.since_checkpoint_s >= params.checkpoint_interval_s:
            return "timed"
        return None


def run_windows(
    schedulers: Sequence[WriteBackScheduler],
    params: Sequence[WriteBackParams],
    buffer_mb: Sequence[float],
    dirty_mb: Sequence[float],
    duration_s: int,
    start_times: Sequence[float],
) -> list[WriteBackResult]:
    """:meth:`WriteBackScheduler.run_window` for many schedulers at once.

    Scheduler *k* runs under ``params[k]`` with a ``buffer_mb[k]`` buffer
    pool, producing ``dirty_mb[k]`` over a window starting at
    ``start_times[k]``. One loop over the window's seconds updates
    ``(schedulers,)`` state vectors with the same float expressions, in
    the same order, as ``run_window``; results and end states are
    bit-identical to one ``run_window`` call per scheduler. Checkpoint
    triggers are sparse, so firing schedulers are handled one by one on
    Python floats.
    """
    n = len(schedulers)
    bg_rate = np.array([p.bg_flush_mb_s for p in params])
    interval = np.array([p.checkpoint_interval_s for p in params])
    wal_limit = np.array([p.wal_limit_mb for p in params])
    # No forced-checkpoint limit is an infinite one: the trigger never fires.
    forced = np.array(
        [
            p.forced_dirty_limit_mb
            if p.forced_dirty_limit_mb is not None and p.forced_dirty_limit_mb > 0.0
            else np.inf
            for p in params
        ]
    )
    spread = [max(1.0, p.checkpoint_interval_s * p.spread_fraction) for p in params]
    dirty_cap = 0.9 * np.array(buffer_mb, dtype=float)
    vac_interval = np.array([s.vacuum_interval_s for s in schedulers], dtype=float)
    vac_write = np.array([s.vacuum_write_mb for s in schedulers], dtype=float)
    backlog = np.array([s.dirty_backlog_mb for s in schedulers])
    wal_since = np.array([s.wal_since_checkpoint_mb for s in schedulers])
    since_cp = np.array([s.since_checkpoint_s for s in schedulers])
    since_vac = np.array([s.since_vacuum_s for s in schedulers])
    act_rate = np.array([s._active_rate_mb_s for s in schedulers])
    act_rem = np.array([s._active_remaining_s for s in schedulers])

    dirty_rate = np.array(dirty_mb, dtype=float) / duration_s
    wal_rate = dirty_rate * _WAL_AMPLIFICATION
    data_writes = np.zeros((duration_s, n))  # (seconds, schedulers)
    bg_total = np.zeros(n)
    backend_total = np.zeros(n)
    ckpt_total = np.zeros(n)
    vac_total = np.zeros(n)
    events: list[list[CheckpointEvent]] = [[] for _ in range(n)]
    vac_times: list[list[float]] = [[] for _ in range(n)]

    for i in range(duration_s):
        backlog += dirty_rate
        wal_since += wal_rate
        since_cp += 1.0
        since_vac += 1.0
        col = data_writes[i]

        bg_flush = np.minimum(backlog, bg_rate)
        backlog -= bg_flush
        col += bg_flush
        bg_total += bg_flush

        # Non-positive overflow adds an exact +0.0, matching the skipped
        # branch of the scalar loop.
        overflow = np.maximum(backlog - dirty_cap, 0.0)
        np.minimum(backlog, dirty_cap, out=backlog)
        col += overflow
        backend_total += overflow

        # Same priority chain as ``WriteBackScheduler._checkpoint_kind``.
        requested = wal_since >= wal_limit
        forced_trig = backlog >= forced
        firing = (act_rem <= 0.0) & (requested | forced_trig | (since_cp >= interval))
        for j in np.nonzero(firing)[0]:
            kind = "requested" if requested[j] else ("forced" if forced_trig[j] else "timed")
            write_mb = float(backlog[j])
            events[j].append(
                CheckpointEvent(float(start_times[j] + i), kind, write_mb, spread[j])
            )
            act_rate[j] = write_mb / spread[j]
            act_rem[j] = spread[j]
            backlog[j] = 0.0
            wal_since[j] = 0.0
            since_cp[j] = 0.0

        # Active checkpoint spread (inactive schedulers add +0.0).
        step = np.minimum(1.0, act_rem)
        burst = act_rate * step
        col += burst
        ckpt_total += burst
        act_rem -= step

        vac_due = since_vac >= vac_interval
        if vac_due.any():
            add = np.where(vac_due, vac_write, 0.0)
            col += add
            vac_total += add
            since_vac[vac_due] = 0.0
            for j in np.nonzero(vac_due)[0]:
                vac_times[j].append(float(start_times[j] + i))

    results = []
    for k, sched in enumerate(schedulers):
        sched.dirty_backlog_mb = float(backlog[k])
        sched.wal_since_checkpoint_mb = float(wal_since[k])
        sched.since_checkpoint_s = float(since_cp[k])
        sched.since_vacuum_s = float(since_vac[k])
        sched._active_rate_mb_s = float(act_rate[k])
        sched._active_remaining_s = float(act_rem[k])
        results.append(
            WriteBackResult(
                data_write_mb_s=data_writes[:, k].copy(),
                wal_write_mb_s=np.full(duration_s, wal_rate[k]),
                events=events[k],
                bgwriter_write_mb=float(bg_total[k]),
                checkpoint_write_mb=float(ckpt_total[k]),
                vacuum_write_mb=float(vac_total[k]),
                backend_write_mb=float(backend_total[k]),
                vacuum_times=vac_times[k],
            )
        )
    return results
