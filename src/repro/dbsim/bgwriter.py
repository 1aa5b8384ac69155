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

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

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

        The model is a per-second recurrence: the backlog grows by the
        dirty rate, the writer flushes its trickle, the backends flush any
        excess over the cap, a checkpoint may trigger (WAL full, dirty
        limit or timeout, once the running spread is over) and writes
        its share, and vacuum runs on its own clock. This method does not
        step every second. It jumps from event to event — a checkpoint
        trigger, the end of a spread, the backlog reaching zero or the
        cap, a vacuum round — and fills the seconds in between with
        sequential accumulates, reproducing the recurrence bit for bit.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if dirty_mb_total < 0:
            raise ValueError("dirty_mb_total must be >= 0")
        if buffer_mb is None:
            buffer_mb = config.buffer_pool_mb()
        params = WriteBackParams.from_config(config)
        n = duration_s
        dirty_rate = dirty_mb_total / duration_s
        wal_rate = dirty_rate * _WAL_AMPLIFICATION
        spread_s = max(1.0, params.checkpoint_interval_s * params.spread_fraction)
        forced = params.forced_dirty_limit_mb
        regime = _Regime(
            dirty_rate,
            wal_rate,
            params.bg_flush_mb_s,
            0.9 * buffer_mb,
            params.wal_limit_mb,
            forced if forced is not None and forced > 0.0 else None,
            params.checkpoint_interval_s,
        )
        # Rows: writer flush, backend overflow (+0.0: none), checkpoint
        # burst, vacuum. Each second's demand adds them in that order.
        writes = np.zeros((4, n))
        events: list[CheckpointEvent] = []
        rate = self._active_rate_mb_s
        left = self._active_remaining_s
        s = 0
        seg = _segment(
            regime,
            self.dirty_backlog_mb,
            self.wal_since_checkpoint_mb,
            self.since_checkpoint_s,
            left,
            n,
        )
        after_checkpoint: _Segment | None = None
        while True:
            m = n - s
            fires = seg.fire < m
            end = seg.fire + 1 if fires else m
            writes[0, s : s + end] = seg.flush[:end]
            writes[1, s : s + end] = seg.overflow[:end]
            active = min(seg.active, m)
            if active:
                writes[2, s : s + active] = rate * np.minimum(1.0, seg.left[:active])
            if not fires:
                self.dirty_backlog_mb = float(seg.backlog[m - 1])
                self.wal_since_checkpoint_mb = float(seg.wal[m - 1])
                self.since_checkpoint_s = float(seg.clock[m - 1])
                if left > 0.0:
                    left = max(float(seg.left[m]), 0.0) if active == m else 0.0
                break
            i = s + seg.fire
            write_mb = float(seg.backlog[seg.fire])
            events.append(CheckpointEvent(start_time_s + i, seg.kind, write_mb, spread_s))
            # The spread lasts at least a second: its first step is whole.
            rate = write_mb / spread_s
            writes[2, i] = rate
            left = spread_s - 1.0
            s = i + 1
            if s == n:
                self.dirty_backlog_mb = 0.0
                self.wal_since_checkpoint_mb = 0.0
                self.since_checkpoint_s = 0.0
                break
            # Every segment after a checkpoint starts from the same state,
            # so its paths are computed once and sliced.
            if after_checkpoint is None:
                after_checkpoint = _segment(regime, 0.0, 0.0, 0.0, left, n - s)
            seg = after_checkpoint
        self._active_rate_mb_s = rate
        self._active_remaining_s = left

        rounds, self.since_vacuum_s = _vacuum_rounds(
            self.since_vacuum_s, self.vacuum_interval_s, n
        )
        writes[3, rounds] = self.vacuum_write_mb
        data_writes = writes[0] + writes[1]
        data_writes += writes[2]
        data_writes += writes[3]
        # Running totals in the recurrence's order; np.sum adds pairwise
        # and the builtin sum compensates (Python 3.12+).
        totals = np.add.accumulate(writes, axis=1)[:, -1].tolist()
        return WriteBackResult(
            data_write_mb_s=data_writes,
            wal_write_mb_s=np.full(n, wal_rate),
            events=events,
            bgwriter_write_mb=totals[0],
            checkpoint_write_mb=totals[2],
            vacuum_write_mb=totals[3],
            backend_write_mb=totals[1],
            vacuum_times=[start_time_s + i for i in range(n)[rounds]],
        )


class _Regime(NamedTuple):
    """What stays fixed over one window of the write-back recurrence."""

    dirty_rate: float
    wal_rate: float
    flush_rate: float
    dirty_cap_mb: float
    wal_limit_mb: float
    forced_dirty_limit_mb: float | None
    checkpoint_interval_s: float


class _Segment(NamedTuple):
    """Per-second paths from one state, as if no checkpoint fired.

    Index *j* is the segment's *j*-th second; each value is what the
    per-second recurrence holds at that second's trigger check.
    """

    flush: np.ndarray  # background-writer flush
    overflow: np.ndarray  # backends' flush of the excess over the cap (+0.0: none)
    backlog: np.ndarray  # dirty backlog after both flushes
    wal: np.ndarray  # WAL written since the last checkpoint
    clock: np.ndarray  # seconds since the last checkpoint
    left: np.ndarray  # spread left of the running checkpoint, plus one entry
    active: int  # leading seconds that running checkpoint still writes
    fire: int  # first second a checkpoint triggers (the length if none)
    kind: str | None


def _segment(
    regime: _Regime, backlog: float, wal: float, clock: float, left: float, length: int
) -> _Segment:
    flush, overflow, after = _backlog_path(regime, backlog, length)
    # WAL volume and the checkpoint clock: ``wal + w + w + …`` and
    # ``clock + 1 + 1 + …``, one addition at a time.
    row = np.empty((2, length + 1))
    row[:, 0] = wal, clock
    row[0, 1:] = regime.wal_rate
    row[1, 1:] = 1.0
    wal_path, clock_path = np.add.accumulate(row, axis=1)[:, 1:]
    if left > 0.0:
        row = np.ones(length + 1)
        row[0] = left
        # ``left − 1 − 1 − …``; where the recurrence's last, fractional
        # step stops at exactly zero this goes negative.
        spread_left = np.subtract.accumulate(row)
        # The positive entries are a prefix: the spread only shrinks.
        active = int(np.count_nonzero(spread_left[:length] > 0.0))
    else:
        spread_left, active = _NO_SPREAD, 0
    # A checkpoint triggers only once the running one has finished. WAL
    # volume and the clock never fall, so each trigger is a search.
    requested = active + int(wal_path[active:].searchsorted(regime.wal_limit_mb))
    timed = active + int(clock_path[active:].searchsorted(regime.checkpoint_interval_s))
    forced = length
    if regime.forced_dirty_limit_mb is not None and active < length:
        due = after[active:] >= regime.forced_dirty_limit_mb
        first = int(due.argmax())
        if due[first]:
            forced = active + first
    fire = min(requested, forced, timed)
    kind = None
    if fire < length:
        kind = "requested" if fire == requested else "forced" if fire == forced else "timed"
    return _Segment(
        flush, overflow, after, wal_path, clock_path, spread_left, active, fire, kind
    )


_NO_SPREAD = np.zeros(0)


def _backlog_path(
    regime: _Regime, backlog: float, length: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flush, overflow and backlog per second while no checkpoint fires.

    Each second the backlog becomes ``x = b + d``; the writer flushes
    ``min(x, r)`` and the backends flush ``(x − r) − cap`` when that is
    positive, so ``b ← min(max(x − r, 0), cap)``. While neither clamp
    binds, the path is one sequential accumulate over ``[b, d, −r, d,
    −r, …]`` (IEEE defines ``x + (−r)`` as ``x − r``). A clamp to zero
    with ``d ≤ r``, or to the cap with ``(cap + d) − r > cap``, is steady
    for the rest of the segment; any other clamp restarts the accumulate
    from the clamped value. The map is monotone, so the backlog moves one
    way and clamps at most a few times.
    """
    d, r, cap = regime.dirty_rate, regime.flush_rate, regime.dirty_cap_mb
    flush = np.empty(length)
    overflow = np.zeros(length)
    after = np.empty(length)
    j = 0
    while j < length:
        rest = length - j
        row = np.empty(2 * rest + 1)
        row[0] = backlog
        row[1::2] = d
        row[2::2] = -r
        path = np.add.accumulate(row)
        pending = path[1::2]
        kept = path[2::2]
        clamped = (pending < r) | (kept > cap)
        linear = int(clamped.argmax())
        if not clamped[linear]:
            linear = rest
        flush[j : j + linear] = r
        after[j : j + linear] = kept[:linear]
        j += linear
        if j == length:
            break
        x = float(pending[linear])
        if x < r:
            # The writer takes everything; the recurrence's x − x is +0.0.
            flush[j] = x
            after[j] = backlog = 0.0
            j += 1
            if d <= r:
                flush[j:] = d
                after[j:] = 0.0
                break
        else:
            flush[j] = r
            overflow[j] = float(kept[linear]) - cap
            after[j] = backlog = cap
            j += 1
            full = (cap + d) - r
            if full > cap:
                flush[j:] = r
                overflow[j:] = full - cap
                after[j:] = cap
                break
    return flush, overflow, after


def _vacuum_rounds(since: float, interval: float, length: int) -> tuple[slice, float]:
    """The window's vacuum seconds, and the vacuum clock after the window.

    The clock counts ``since + 1 + 1 + …`` up to the first round and whole
    seconds from zero after it, so rounds recur every ``ceil(interval)``.
    """
    row = np.ones(length + 1)
    row[0] = since
    clock = np.add.accumulate(row)[1:]
    first = int(clock.searchsorted(interval))
    if first == length:
        return slice(0, 0), float(clock[-1])
    period = max(1, math.ceil(interval))
    last = first + (length - 1 - first) // period * period
    return slice(first, None, period), float(length - 1 - last)


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
    ``(schedulers,)`` state vectors with the per-second recurrence's float
    expressions, in its order; results and end states are bit-identical
    to one ``run_window`` call per scheduler. Checkpoint triggers are
    sparse, so firing schedulers are handled one by one on Python floats.
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

        # Trigger priority: requested, then forced, then timed.
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
