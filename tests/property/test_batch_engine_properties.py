"""Property: the window step's result does not depend on chunk width.

``SimulatedDatabase.run`` is the engine's window step on a chunk of one;
``MemberBatch.step_window`` runs the same step over the whole roster,
with traffic and both disks on ``(members, seconds)`` matrices and the
event-driven write-back kernel (``WriteBackScheduler.run_window``) per
member. The hard invariant is bit-identity with
``[db.run(batch) for db, batch in ...]`` — not approximate equality:
fleet experiments compare rendered bytes across worker counts, so a
single ULP of drift anywhere would break the parity suite.

Hypothesis drives fleets of one member, a few, a fleet-tde shard (25)
and a wide roster through arbitrary seeds, window plans and fault plans
(config reloads, restarts with their stall and cold-cache windows, disk
degradation, crash/heal cycles, off-length windows), comparing results,
RNG stream positions and write-back scheduler state after every window.
The kernel itself is checked against the per-second recurrence in
``test_writeback_kernel_properties.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.fleet import FleetSpec, build_member
from repro.dbsim.batch_engine import MemberBatch
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.engine import DatabaseCrashed

_WINDOW_S = 60.0

#: Fleet widths: one member, a few, a fleet-tde shard and a wide roster.
_WIDTHS = (1, 3, 25, 99)

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
    disk = result.data_disk
    arrays += [disk.read_latency, disk.write_latency, disk.iops]
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

    @pytest.mark.parametrize("width", [3, 99])
    def test_crashed_member_raises_like_serial_loop(self, width):
        serial, batched, engine = _serial_and_batched(3, width)
        # Everything but the last two members steps before the crash.
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

