"""Bench: the write-back recurrence's two lanes against the per-second loop.

The engine runs §3.2's checkpointer/background-writer recurrence in one
of two lanes (``_VECTOR_MIN_MEMBERS`` in ``repro/dbsim/engine.py`` picks
by chunk width):

- **kernel**: :meth:`~repro.dbsim.bgwriter.WriteBackScheduler.run_window`
  per member, the event-driven kernel that jumps from one checkpoint,
  spread end or clamp to the next;
- **vector**: :func:`~repro.dbsim.bgwriter.run_windows`, one numpy step
  per window second over the whole chunk.

Both are timed against **reference**, the per-second loop that defines
the recurrence (``tests/reference.py``), at chunk widths 1/8/25/80/96/128/1000
and at 60 s and 300 s windows. Members are synthetic and seeded: each
draws a PostgreSQL or MySQL configuration uniformly over the knob
ranges and a dirty rate between a tenth of and ten times its writer's
flush rate, so both backlog regimes and every checkpoint trigger occur.
Every lane runs the same chain of windows from fresh schedulers, and
their final scheduler states must agree bit for bit. Timings are the
best of the rounds, in µs per member-window, in
``benchmarks/out/BENCH_writeback.json`` with the run's usable cores.

Gate: at width 1 and 300 s windows the kernel is at least
:data:`MIN_SPEEDUP` times faster than the reference, a ratio measured
in one run, so the host's speed cancels. The committed measurement is
``benchmarks/baselines/BENCH_writeback_baseline.json``. ``PERF_QUICK=1``
(CI) runs fewer rounds.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

import numpy as np
from conftest import run_once

from repro.dbsim.bgwriter import WriteBackParams, WriteBackScheduler, run_windows
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.knobs import catalog_for

# The reference loop lives with the tests; ``pytest`` run as a command
# (not ``python -m pytest``) does not put the repository root on the path.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.reference import run_window_per_second  # noqa: E402

QUICK = os.environ.get("PERF_QUICK") == "1"
ROUNDS = 2 if QUICK else 5
WIDTHS = (1, 8, 25, 80, 96, 128, 1000)
WINDOWS_S = (60, 300)
#: Member-windows timed per lane and width, at least: narrow chunks run
#: more windows so their per-member time is not one window's noise.
MIN_MEMBER_WINDOWS = 120 if QUICK else 240
#: The kernel's same-run speedup over the reference, width 1, 300 s.
MIN_SPEEDUP = 2.5

JSON_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_writeback.json"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def _members(width: int, seed: int) -> list[tuple[KnobConfiguration, float]]:
    """*width* seeded (config, dirty MB/s) pairs, alternating flavors."""
    rng = np.random.default_rng(seed)
    members = []
    for k in range(width):
        catalog = catalog_for("postgres" if k % 2 == 0 else "mysql")
        config = KnobConfiguration(
            catalog,
            {
                knob.name: knob.min_value + f * (knob.max_value - knob.min_value)
                for knob, f in zip(catalog, rng.random(len(catalog)))
            },
        )
        flush = WriteBackParams.from_config(config).bg_flush_mb_s
        members.append((config, flush * 10.0 ** rng.uniform(-1.0, 1.0)))
    return members


def _state(sched: WriteBackScheduler) -> tuple[float, ...]:
    return (
        sched.dirty_backlog_mb,
        sched.wal_since_checkpoint_mb,
        sched.since_checkpoint_s,
        sched.since_vacuum_s,
        sched._active_rate_mb_s,
        sched._active_remaining_s,
    )


def _time_lane(lane: str, members, window_s: int, windows: int):
    """Seconds for *windows* windows of *members*, and the final states."""
    scheds = [WriteBackScheduler() for _ in members]
    configs = [config for config, _ in members]
    dirty = [rate * window_s for _, rate in members]
    params = [WriteBackParams.from_config(c) for c in configs]
    buffers = [c.buffer_pool_mb() for c in configs]
    start = time.perf_counter()
    for w in range(windows):
        clock = float(w * window_s)
        if lane == "vector":
            run_windows(scheds, params, buffers, dirty, window_s, [clock] * len(scheds))
        elif lane == "kernel":
            for sched, config, d in zip(scheds, configs, dirty):
                sched.run_window(config, d, window_s, start_time_s=clock)
        else:
            for sched, config, d in zip(scheds, configs, dirty):
                run_window_per_second(sched, config, d, window_s, start_time_s=clock)
    return time.perf_counter() - start, [_state(s) for s in scheds]


def _lane_table() -> dict:
    table: dict = {}
    for window_s in WINDOWS_S:
        rows: dict = {}
        for width in WIDTHS:
            members = _members(width, seed=width)
            windows = max(3, -(-MIN_MEMBER_WINDOWS // width))
            best: dict[str, float] = {}
            for _ in range(ROUNDS):
                states = {}
                for lane in ("reference", "kernel", "vector"):
                    seconds, states[lane] = _time_lane(lane, members, window_s, windows)
                    us = 1e6 * seconds / (width * windows)
                    best[lane] = min(best.get(lane, us), us)
                assert repr(states["kernel"]) == repr(states["reference"])
                assert repr(states["vector"]) == repr(states["reference"])
            rows[str(width)] = {
                "windows": windows,
                **{f"{lane}_us": round(us, 1) for lane, us in best.items()},
            }
        table[str(window_s)] = rows
    return table


def test_perf_writeback_lanes(benchmark, emit):
    def work() -> dict:
        return {
            "quick": QUICK,
            "rounds": ROUNDS,
            "usable_cores": _usable_cores(),
            "unit": "us per member-window, best of rounds",
            "lanes": _lane_table(),
        }

    report = run_once(benchmark, work)
    point = report["lanes"]["300"]["1"]
    speedup = point["reference_us"] / point["kernel_us"]
    report["speedup_width1_300s"] = round(speedup, 2)
    report["gates"] = {"min_speedup_width1_300s": MIN_SPEEDUP}
    JSON_OUT.parent.mkdir(exist_ok=True)
    JSON_OUT.write_text(json.dumps(report, indent=1) + "\n")

    lines = [
        f"rounds: {ROUNDS} (quick={QUICK}); usable cores: {report['usable_cores']}; "
        "us per member-window, best of rounds"
    ]
    for window_s, rows in report["lanes"].items():
        lines.append(f"{window_s} s windows")
        lines.append("  members    " + "".join(f"{w:>8}" for w in rows))
        for lane in ("reference", "kernel", "vector"):
            lines.append(
                f"  {lane:<11}" + "".join(f"{r[lane + '_us']:>8.0f}" for r in rows.values())
            )
    lines.append(
        f"kernel speedup over the reference, width 1, 300 s: {speedup:.2f}x "
        f"(floor {MIN_SPEEDUP:.1f}x)"
    )
    emit("perf_writeback", "\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"kernel only {speedup:.2f}x faster than the per-second reference "
        f"(floor {MIN_SPEEDUP:.1f}x)"
    )
