"""Property: the event-driven write-back kernel is the per-second recurrence.

:meth:`WriteBackScheduler.run_window` jumps from event to event — a
checkpoint trigger, the end of a spread, the backlog reaching zero or the
dirty cap, a vacuum round — and fills the seconds between with sequential
accumulates. Its definition is the loop that steps every second,
``tests/reference.py``'s :func:`run_window_per_second`. The two must agree
bit for bit on the per-second write arrays, the checkpoint events, the
vacuum rounds, the four write totals and the scheduler's state after
every window of a chain.

Hypothesis draws chains of at least three windows over:

- arbitrary carried state, including a running spread with a fractional
  remainder and WAL exactly at its limit;
- both flavors: PostgreSQL (no forced limit) and MySQL with a zero or a
  positive dirty-page limit;
- a dirty cap below one second of dirtying, and the buffer pool's own;
- dirty rates below, exactly at and above the writer's flush rate, and
  no dirtying at all (a volume of ``0.0`` or ``-0.0``);
- windows of 1, 60, 300 and 600 s and odd lengths; configs that change
  between windows; vacuum intervals below one second and fractional;
- the states the kernel answers in closed form: a carried backlog of
  exactly ``0.0`` or ``-0.0``, or exactly at the first window's cap; and
  checkpoint clocks, vacuum clocks and spread remainders that are whole,
  fractional, or so large that stepping by one second is no longer exact.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim.bgwriter import WriteBackParams, WriteBackScheduler
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.knobs import catalog_for
from tests.reference import run_window_per_second

_DURATIONS = st.one_of(
    st.sampled_from((1, 60, 300, 600)), st.integers(min_value=1, max_value=700)
)


@st.composite
def _configs(draw, flavor):
    catalog = catalog_for(flavor)
    # Range ends are drawn often: they are where clamps and ties happen.
    fraction = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
    values = {
        k.name: k.min_value + draw(fraction) * (k.max_value - k.min_value)
        for k in catalog
    }
    if flavor == "mysql" and draw(st.booleans()):
        values["innodb_max_dirty_pages_pct"] = 0.0
    return KnobConfiguration(catalog, values)


def _exact_rate(rate: float, duration: int) -> float:
    """A dirty volume whose per-second rate is exactly *rate*."""
    total = rate * duration
    while total / duration > rate:
        total = math.nextafter(total, 0.0)
    while total / duration < rate:
        total = math.nextafter(total, math.inf)
    return total


@st.composite
def _windows(draw, flavor):
    config = draw(_configs(flavor))
    duration = draw(_DURATIONS)
    flush = WriteBackParams.from_config(config).bg_flush_mb_s
    regime = draw(st.sampled_from(("below", "equal", "above", "zero", "any")))
    if regime == "zero":
        dirty = draw(st.sampled_from((0.0, -0.0)))
    elif regime == "equal":
        dirty = _exact_rate(flush, duration)
    elif regime == "any":
        dirty = draw(st.floats(min_value=0.0, max_value=50_000.0))
    else:
        factor = draw(st.floats(min_value=0.01, max_value=0.99))
        dirty = flush * duration * (factor if regime == "below" else 1.0 / factor)
    buffer_mb = draw(
        st.one_of(
            st.none(),
            # A cap below one second of dirtying.
            st.just(dirty / duration / 2.0 / 0.9 + 1e-3),
            st.floats(min_value=1e-3, max_value=20_000.0),
        )
    )
    return config, dirty, duration, buffer_mb


def _clock(top: int):
    """Seconds on a counter: whole, fractional, or past exact stepping."""
    return st.one_of(
        st.floats(min_value=0.0, max_value=float(top)),
        st.integers(min_value=0, max_value=top).map(float),
        st.integers(min_value=0, max_value=top).map(lambda x: x + 0.5),
        # Whole seconds are exact to 2**53; past it a step rounds.
        st.sampled_from((2.0**52 + 1.0, 2.0**53 + 2.0)),
    )


@st.composite
def _chains(draw):
    flavor = draw(st.sampled_from(("postgres", "mysql")))
    windows = draw(st.lists(_windows(flavor), min_size=3, max_size=5))
    first = WriteBackParams.from_config(windows[0][0])
    wal = st.one_of(
        st.floats(min_value=0.0, max_value=5000.0),
        st.just(first.wal_limit_mb),
    )
    left = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        st.floats(min_value=1.0, max_value=400.0).map(lambda x: x + 0.37),
        st.integers(min_value=1, max_value=400).map(float),
        # Past 2**53 a step of one second rounds: the spread stalls.
        st.just(2.0**53 + 2.0),
    )
    config, _, _, buffer_mb = windows[0]
    cap = 0.9 * (config.buffer_pool_mb() if buffer_mb is None else buffer_mb)
    backlog = st.one_of(
        st.floats(min_value=0.0, max_value=5000.0),
        st.sampled_from((0.0, -0.0, cap)),
    )
    state = (
        draw(backlog),  # dirty backlog MB
        draw(wal),  # WAL since checkpoint MB
        draw(_clock(2000)),  # since checkpoint s
        draw(_clock(300)),  # since vacuum s
        draw(st.floats(min_value=0.0, max_value=200.0)),  # spread rate MB/s
        draw(left),  # spread left s
    )
    vacuum = (
        draw(st.floats(min_value=0.25, max_value=400.0)),  # vacuum interval s
        draw(st.floats(min_value=0.0, max_value=64.0)),  # vacuum write MB
    )
    start = float(draw(st.integers(min_value=0, max_value=10**6)))
    return state, vacuum, start, windows


def _scheduler(state, vacuum) -> WriteBackScheduler:
    sched = WriteBackScheduler(vacuum_interval_s=vacuum[0], vacuum_write_mb=vacuum[1])
    (
        sched.dirty_backlog_mb,
        sched.wal_since_checkpoint_mb,
        sched.since_checkpoint_s,
        sched.since_vacuum_s,
        sched._active_rate_mb_s,
        sched._active_remaining_s,
    ) = state
    return sched


def _fingerprint(result, sched):
    return {
        "events": repr(result.events),
        "vacuum_times": repr(result.vacuum_times),
        "totals": repr(
            (
                result.bgwriter_write_mb,
                result.checkpoint_write_mb,
                result.vacuum_write_mb,
                result.backend_write_mb,
            )
        ),
        "data": result.data_write_mb_s.tobytes(),
        "wal": result.wal_write_mb_s.tobytes(),
        "state": repr(
            (
                sched.dirty_backlog_mb,
                sched.wal_since_checkpoint_mb,
                sched.since_checkpoint_s,
                sched.since_vacuum_s,
                sched._active_rate_mb_s,
                sched._active_remaining_s,
            )
        ),
    }


class TestKernelEqualsPerSecondLoop:
    @settings(max_examples=300, deadline=None)
    @given(chain=_chains())
    def test_bit_identical_over_window_chains(self, chain):
        state, vacuum, start, windows = chain
        kernel = _scheduler(state, vacuum)
        loop = _scheduler(state, vacuum)
        for config, dirty, duration, buffer_mb in windows:
            got = kernel.run_window(config, dirty, duration, start, buffer_mb)
            want = run_window_per_second(loop, config, dirty, duration, start, buffer_mb)
            assert _fingerprint(got, kernel) == _fingerprint(want, loop)
            start += duration

    @pytest.mark.parametrize("flavor", ["postgres", "mysql"])
    @pytest.mark.parametrize("regime", ["below", "equal", "above"])
    @pytest.mark.parametrize("backlog", ["zero", "negative zero", "cap"])
    def test_steady_starts(self, flavor, regime, backlog):
        """Each closed-form start, with whole and fractional counters."""
        config = KnobConfiguration(catalog_for(flavor))
        flush = WriteBackParams.from_config(config).bg_flush_mb_s
        rate = {"below": flush / 2.0, "equal": flush, "above": flush * 3.0}[regime]
        buffer_mb = 40.0
        carried = {"zero": 0.0, "negative zero": -0.0, "cap": 0.9 * buffer_mb}[backlog]
        for clock, vacuum, left in ((0.0, 0.0, 0.0), (37.0, 119.0, 12.0), (3.25, 7.5, 0.4)):
            state = (carried, 0.0, clock, vacuum, 2.5, left)
            kernel = _scheduler(state, (120.0, 24.0))
            loop = _scheduler(state, (120.0, 24.0))
            start = 0.0
            for duration in (300, 1, 299):
                dirty = _exact_rate(rate, duration)
                got = kernel.run_window(config, dirty, duration, start, buffer_mb)
                want = run_window_per_second(loop, config, dirty, duration, start, buffer_mb)
                assert _fingerprint(got, kernel) == _fingerprint(want, loop)
                start += duration

    def test_exact_rate_helper_hits_the_flush_rate(self):
        config = KnobConfiguration(catalog_for("postgres"))
        flush = WriteBackParams.from_config(config).bg_flush_mb_s
        for duration in (1, 7, 60, 299, 300):
            assert _exact_rate(flush, duration) / duration == flush
