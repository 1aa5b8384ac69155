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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.dbsim.config import KnobConfiguration

__all__ = [
    "CheckpointEvent",
    "WriteBackParams",
    "WriteBackResult",
    "WriteBackScheduler",
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
        cap, a vacuum round — and fills the seconds in between,
        reproducing the recurrence bit for bit: sequential float sums
        (WAL volume, a backlog between clamps, the totals) as
        accumulates, and in closed form only what is provably exact (a
        backlog steady at zero or at the cap, and the whole-second
        checkpoint, spread and vacuum counters).
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
                # ``rate × min(1, left)``: whole seconds write ``rate``,
                # and only the spread's last second can be a fraction.
                writes[2, s : s + active] = rate
                last = _spread_left(seg.left, active - 1)
                if last < 1.0:
                    writes[2, s + active - 1] = rate * last
            if not fires:
                self.dirty_backlog_mb = float(seg.backlog[m - 1])
                self.wal_since_checkpoint_mb = float(seg.wal[m - 1])
                self.since_checkpoint_s = _counted(seg.clock, m)
                if left > 0.0:
                    left = max(_spread_left(seg.left, m), 0.0) if active == m else 0.0
                break
            i = s + seg.fire
            events.append(CheckpointEvent(start_time_s + i, seg.kind))
            # The spread lasts at least a second: its first step is whole.
            rate = float(seg.backlog[seg.fire]) / spread_s
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
            # The recurrence adds each second's WAL to a zeroed array.
            wal_write_mb_s=_filled(n, 0.0 + wal_rate),
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
    clock: float  # seconds since the last checkpoint, at the segment's start
    left: float  # spread left of the running checkpoint, at the segment's start
    active: int  # leading seconds that running checkpoint still writes
    fire: int  # first second a checkpoint triggers (the length if none)
    kind: str | None


def _segment(
    regime: _Regime, backlog: float, wal: float, clock: float, left: float, length: int
) -> _Segment:
    flush, overflow, after = _backlog_path(regime, backlog, length)
    # WAL volume: ``wal + w + w + …``, one addition at a time.
    row = np.empty(length + 1)
    row[0] = wal
    row[1:] = regime.wal_rate
    wal_path = np.add.accumulate(row)[1:]
    # The running spread writes while ``left − 1 − 1 − …`` is positive:
    # its first ceil(left) seconds (see _spread_left).
    active = 0
    if left > 0.0:
        active = length if left >= length else math.ceil(left)
    # A checkpoint triggers only once the running one has finished. WAL
    # volume and the clock never fall, so each trigger is a search.
    requested = active + int(wal_path[active:].searchsorted(regime.wal_limit_mb))
    timed = max(active, _first_reaching(clock, regime.checkpoint_interval_s, length))
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
    return _Segment(flush, overflow, after, wal_path, clock, left, active, fire, kind)


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
    # The two steady states, in closed form. From zero (or −0.0) the
    # writer takes x whole: ``b + d``, then ``0.0 + d`` once x − x has
    # left +0.0 (the two differ only for d = −0.0). At the cap, x − r is
    # ``full`` every second and the backends flush the excess.
    if backlog == 0.0 and d <= r:
        flush = _filled(length, 0.0 + d)
        flush[0] = backlog + d
        zeros = np.zeros(length)  # read-only from here on
        return flush, zeros, zeros
    full = (cap + d) - r
    if backlog == cap and full > cap:
        return _filled(length, r), _filled(length, full - cap), _filled(length, cap)
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
                flush[j:] = 0.0 + d
                after[j:] = 0.0
                break
        else:
            flush[j] = r
            overflow[j] = float(kept[linear]) - cap
            after[j] = backlog = cap
            j += 1
            if full > cap:
                flush[j:] = r
                overflow[j:] = full - cap
                after[j:] = cap
                break
    return flush, overflow, after


def _filled(length: int, value: float) -> np.ndarray:
    """``np.full(length, value)`` without its Python-level overhead."""
    filled = np.empty(length)
    filled.fill(value)
    return filled


def _vacuum_rounds(since: float, interval: float, length: int) -> tuple[slice, float]:
    """The window's vacuum seconds, and the vacuum clock after the window.

    The clock counts ``since + 1 + 1 + …`` up to the first round and whole
    seconds from zero after it, so rounds recur every ``ceil(interval)``.
    """
    first = _first_reaching(since, interval, length)
    if first == length:
        return slice(0, 0), _counted(since, length)
    period = max(1, math.ceil(interval))
    last = first + (length - 1 - first) // period * period
    return slice(first, None, period), float(length - 1 - last)


#: Counters (the checkpoint and vacuum clocks, a spread's seconds left)
#: step by one second at a time. Below this magnitude every step is
#: exact (from a whole start, or down from a spread of at least one
#: second), so ``start ± k`` is the k-th sequential sum; anything else
#: is summed one step at a time.
_EXACT_COUNT = 2.0**52


def _exact_count(start: float) -> bool:
    return float(start).is_integer() and abs(start) < _EXACT_COUNT


def _counted(start: float, steps: int) -> float:
    """``start + 1 + 1 + …`` with *steps* ones, added one at a time."""
    if _exact_count(start):
        return start + steps
    row = np.ones(steps + 1)
    row[0] = start
    return float(np.add.accumulate(row)[-1])


def _first_reaching(start: float, limit: float, length: int) -> int:
    """First *j* below *length* whose count ``start + (j + 1)`` reaches
    *limit* (*length* if none): the searchsorted of the counter's path."""
    if _exact_count(start):
        if not start + length >= limit:
            return length
        # Whole counts reach *limit* exactly when they reach ceil(limit).
        return max(0, math.ceil(limit) - int(start) - 1)
    row = np.ones(length + 1)
    row[0] = start
    return int(np.add.accumulate(row)[1:].searchsorted(limit))


def _spread_left(left: float, steps: int) -> float:
    """``left − 1 − 1 − …`` with *steps* ones, taken one at a time.

    Every step from ``left ≥ 1`` is exact here, so the value is
    ``left − steps`` while it stays non-negative. Past that it is
    negative either way, and callers read only its sign.
    """
    if left < _EXACT_COUNT:
        return left - steps
    row = np.ones(steps + 1)
    row[0] = left
    return float(np.subtract.accumulate(row)[-1])
