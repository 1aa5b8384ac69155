"""Property: the window step's result does not depend on chunk width.

``SimulatedDatabase.run`` is the engine's window step on a chunk of one;
``MemberBatch.step_window`` runs the same step over the whole roster. The
step forks in one place only: chunks narrower than
``_VECTOR_MIN_MEMBERS`` run the per-second write-back recurrence per
member (``WriteBackScheduler.run_window``), wider chunks run it
vectorised (``run_windows``). The hard invariant is bit-identity with
``[db.run(batch) for db, batch in ...]`` — not approximate equality:
fleet experiments compare rendered bytes across worker counts, so a
single ULP of drift anywhere would break the parity suite.

Hypothesis drives fleets on both sides of the crossover through
arbitrary seeds, window plans and fault plans (config reloads, restarts
with their stall and cold-cache windows, disk degradation, crash/heal
cycles, off-length windows), comparing results, RNG stream positions and
write-back scheduler state after every window; a second property pits
the two write-back lanes against each other directly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.fleet import FleetSpec, build_member
from repro.dbsim.batch_engine import MemberBatch
from repro.dbsim.bgwriter import WriteBackParams, WriteBackScheduler, run_windows
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.engine import _VECTOR_MIN_MEMBERS, DatabaseCrashed
from repro.dbsim.knobs import catalog_for

_WINDOW_S = 60.0

#: Fleet widths on both sides of the write-back lane crossover.
_WIDTHS = (1, _VECTOR_MIN_MEMBERS - 1, _VECTOR_MIN_MEMBERS, _VECTOR_MIN_MEMBERS + 3)

#: Per-member, per-window operations. Everything except "none" makes
#: the member's next window exceptional: a stall, a cold cache, a
#: degraded disk, a fresh write-back state or a window of its own length.
_OPS = ("none", "reload", "restart", "degrade", "heal_disk", "crash_heal", "short")


@st.composite
def _plans(draw):
    width = draw(st.sampled_from(_WIDTHS))
    windows = draw(st.integers(min_value=1, max_value=5))
    ops = st.lists(st.sampled_from(_OPS), min_size=width, max_size=width)
    return [draw(ops) for _ in range(windows)]


def _build(seed: int, size: int):
    spec = FleetSpec(size=size, root=seed)
    return [build_member(spec, i) for i in range(size)]


def _apply_op(db, op: str) -> None:
    if op == "reload":
        # Tunable knob delta: applies without downtime.
        values = db.config.as_dict()
        values["work_mem"] = min(values["work_mem"] * 2.0, 4096.0)
        db.apply_config(KnobConfiguration(db.catalog, values), mode="reload")
    elif op == "restart":
        # Restart-required knob delta within budget: stall + cold cache.
        values = db.config.as_dict()
        values["shared_buffers"] = max(values["shared_buffers"] * 0.5, 16.0)
        db.apply_config(KnobConfiguration(db.catalog, values), mode="restart")
    elif op == "degrade":
        db.set_disk_degradation(1.5)
    elif op == "heal_disk":
        db.set_disk_degradation(1.0)
    elif op == "crash_heal":
        db.crashed = True
        db.heal()


def _scheduler_state(db):
    s = db._scheduler
    return (
        s.dirty_backlog_mb,
        s.wal_since_checkpoint_mb,
        s.since_checkpoint_s,
        s.since_vacuum_s,
        s._active_rate_mb_s,
        s._active_remaining_s,
    )


def _fingerprint(result):
    """``repr`` plus the exact bytes of every per-second array.

    numpy's array ``repr`` rounds to 8 digits, so the arrays are compared
    as raw bytes to catch a ULP of drift.
    """
    arrays = [
        result.writeback.data_write_mb_s,
        result.writeback.wal_write_mb_s,
    ]
    for disk in (result.data_disk, result.wal_disk):
        for series in (disk.read_latency, disk.write_latency, disk.iops):
            arrays += [series.times, series.values]
    return repr(result), [a.tobytes() for a in arrays]


def _batches(fleet, clock, ops=None):
    ops = ops or ["none"] * len(fleet)
    return [
        m.workload.batch(
            _WINDOW_S / 2 if op == "short" else _WINDOW_S,
            start_time_s=clock + m.phase_offset_s,
        )
        for m, op in zip(fleet, ops)
    ]


def _serial_and_batched(seed: int, width: int):
    serial = _build(seed, width)
    batched = _build(seed, width)
    engine = MemberBatch([m.deployment.service.master for m in batched])
    return serial, batched, engine


class TestBatchedEqualsLoop:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), plan=_plans())
    def test_bit_identical_across_fault_plans(self, seed, plan):
        serial, batched, engine = _serial_and_batched(seed, len(plan[0]))
        clock = 0.0
        for ops in plan:
            for fleet in (serial, batched):
                for member, op in zip(fleet, ops):
                    _apply_op(member.deployment.service.master, op)
            serial_results = [
                m.deployment.service.run(b)
                for m, b in zip(serial, _batches(serial, clock, ops))
            ]
            batched_results = engine.step_window(_batches(batched, clock, ops))
            for a, b in zip(serial_results, batched_results):
                assert _fingerprint(a) == _fingerprint(b)
            for a, b in zip(serial, batched):
                da = a.deployment.service.master
                db = b.deployment.service.master
                assert da.clock_s == db.clock_s
                assert repr(_scheduler_state(da)) == repr(_scheduler_state(db))
                assert (
                    da._rng.bit_generator.state == db._rng.bit_generator.state
                )
                assert (
                    a.workload._rng.bit_generator.state
                    == b.workload._rng.bit_generator.state
                )
            clock += _WINDOW_S

    @pytest.mark.parametrize("width", [3, _VECTOR_MIN_MEMBERS + 3])
    def test_crashed_member_raises_like_serial_loop(self, width):
        serial, batched, engine = _serial_and_batched(3, width)
        # Everything but the last two members steps before the crash: a
        # wide roster runs its prefix on the vectorised lane.
        down = width - 2
        for fleet in (serial, batched):
            fleet[down].deployment.service.master.crashed = True
        serial_exc = None
        try:
            for m, b in zip(serial, _batches(serial, 0.0)):
                m.deployment.service.run(b)
        except DatabaseCrashed as exc:
            serial_exc = exc
        assert serial_exc is not None
        try:
            engine.step_window(_batches(batched, 0.0))
        except DatabaseCrashed as exc:
            assert str(exc) == str(serial_exc)
        else:  # pragma: no cover - failure branch
            raise AssertionError("batched path did not raise")
        for i, (a, b) in enumerate(zip(serial, batched)):
            da = a.deployment.service.master
            db = b.deployment.service.master
            # Members before the crash advanced identically in both
            # engines; the crashed member and those after it did not.
            assert da.clock_s == db.clock_s == (_WINDOW_S if i < down else 0.0)
            assert da._rng.bit_generator.state == db._rng.bit_generator.state
            assert repr(_scheduler_state(da)) == repr(_scheduler_state(db))

    def test_member_count_mismatch_rejected(self):
        fleet = _build(0, 2)
        engine = MemberBatch([m.deployment.service.master for m in fleet])
        try:
            engine.step_window([])
        except ValueError as exc:
            assert "one batch per member" in str(exc)
        else:  # pragma: no cover - failure branch
            raise AssertionError("mismatched batch list accepted")


_scheduler_states = st.tuples(
    st.floats(min_value=0.0, max_value=5000.0),  # dirty backlog MB
    st.floats(min_value=0.0, max_value=5000.0),  # WAL since checkpoint MB
    st.floats(min_value=0.0, max_value=2000.0),  # since checkpoint s
    st.floats(min_value=0.0, max_value=300.0),  # since vacuum s
    st.floats(min_value=0.0, max_value=200.0),  # active checkpoint rate
    st.floats(min_value=0.0, max_value=400.0),  # active checkpoint remaining
    st.floats(min_value=1.0, max_value=300.0),  # vacuum interval s
    st.floats(min_value=0.0, max_value=64.0),  # vacuum write MB
)


@st.composite
def _lane_members(draw, flavor):
    catalog = catalog_for(flavor)
    fractions = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=len(catalog),
            max_size=len(catalog),
        )
    )
    config = KnobConfiguration(
        catalog,
        {
            k.name: k.min_value + f * (k.max_value - k.min_value)
            for k, f in zip(catalog, fractions)
        },
    )
    state = draw(_scheduler_states)
    dirty_mb = draw(st.floats(min_value=0.0, max_value=50_000.0))
    start = float(draw(st.integers(min_value=0, max_value=10**6)))
    return config, state, dirty_mb, start


def _scheduler(state) -> WriteBackScheduler:
    sched = WriteBackScheduler(vacuum_interval_s=state[6], vacuum_write_mb=state[7])
    (
        sched.dirty_backlog_mb,
        sched.wal_since_checkpoint_mb,
        sched.since_checkpoint_s,
        sched.since_vacuum_s,
        sched._active_rate_mb_s,
        sched._active_remaining_s,
    ) = state[:6]
    return sched


def _writeback_fingerprint(result, sched):
    return (
        repr(result.events),
        repr(result.vacuum_times),
        repr(
            (
                result.bgwriter_write_mb,
                result.checkpoint_write_mb,
                result.vacuum_write_mb,
                result.backend_write_mb,
            )
        ),
        result.data_write_mb_s.tobytes(),
        result.wal_write_mb_s.tobytes(),
        repr(
            (
                sched.dirty_backlog_mb,
                sched.wal_since_checkpoint_mb,
                sched.since_checkpoint_s,
                sched.since_vacuum_s,
                sched._active_rate_mb_s,
                sched._active_remaining_s,
            )
        ),
    )


class TestWriteBackLanes:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        flavor=st.sampled_from(("postgres", "mysql")),
        width=st.integers(min_value=1, max_value=5),
        duration=st.integers(min_value=1, max_value=400),
    )
    def test_run_window_equals_vectorised_recurrence(
        self, data, flavor, width, duration
    ):
        members = [data.draw(_lane_members(flavor)) for _ in range(width)]
        scalar = [_scheduler(state) for _, state, _, _ in members]
        vector = [_scheduler(state) for _, state, _, _ in members]
        expected = [
            sched.run_window(config, dirty, duration, start_time_s=start)
            for sched, (config, _, dirty, start) in zip(scalar, members)
        ]
        got = run_windows(
            vector,
            [WriteBackParams.from_config(config) for config, _, _, _ in members],
            [config.buffer_pool_mb() for config, _, _, _ in members],
            [dirty for _, _, dirty, _ in members],
            duration,
            [start for _, _, _, start in members],
        )
        for e, g, es, gs in zip(expected, got, scalar, vector):
            assert _writeback_fingerprint(e, es) == _writeback_fingerprint(g, gs)
