"""Bench: members/s trajectory of the columnar fleet engine + sharded executor.

Two measurements, one JSON artifact (``benchmarks/out/BENCH_parallel.json``):

1. **Engine trajectory** — builds 80, 1k (and 10k in the full profile)
   fleet members with :func:`~repro.cloud.fleet.build_member` and steps
   them serially through one :class:`~repro.dbsim.batch_engine.MemberBatch`,
   the engine a fig09 shard worker runs. Each window splits into its three
   phases (workload generation, columnar ``step_window``, monitoring
   ingest), reporting members/s for the engine phases and the full step.
   The serial 1k-member engine rate is the regression-gated number. Each
   of its nine windows is one round, timed right after loopbench's fixed
   calibration loop (``loopbench/calibrate.py``) and scaled to that
   loop's reference host speed, so a host that slows down between or
   within runs slows both alike. The median of the per-round rates at
   reference speed must stay within 20% of the committed baseline
   (``benchmarks/baselines/BENCH_parallel_baseline.json``); the median
   as measured must stay at least 3x above the recorded PR-5
   per-object-loop engine, which was recorded unscaled. A single
   two-window measurement let a copy whose engine ran at half speed pass
   the gate in 4 of 10 runs.
2. **Executor scaling** — runs the fig09 fleet-tuning loop at workers
   1/2/4, asserts byte-identical results everywhere, and attributes wall
   time per phase (member step / serialize / send / recv wait / reduce)
   from the executor's pipe-seam stats, including the steady-state
   command bytes vs the full-snapshot rebroadcast they replaced.

The >= 2x speedup assertion only applies where it can physically hold:
the full profile on a machine granting this process at least 4 usable
cores (cpu affinity, not ``cpu_count()``). Everywhere else the bench
records the measured speedup plus an explicit skip reason instead of
failing on hardware it cannot control. ``PERF_QUICK=1`` (CI) shrinks the
fig09 scenario and drops the 10k point, keeping the same shape.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys
import time

from conftest import run_once

from repro.cloud.fleet import FleetSpec, build_member
from repro.common.rng import stream_root
from repro.dbsim.batch_engine import MemberBatch
from repro.experiments import fig09_requests_per_minute as fig09
from repro.parallel import SessionStats

# ``pytest`` run as a command (not ``python -m pytest``) does not put the
# repository root, and so loopbench's calibration loop, on the path.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from loopbench.calibrate import REFERENCE_MS, calibration_ms  # noqa: E402

QUICK = os.environ.get("PERF_QUICK") == "1"
WINDOW_S = 300.0
#: (members, windows) trajectory points; bigger fleets get fewer windows
#: so the full profile stays minutes, not hours. The gated 1k point
#: steps one window per round.
GATED_MEMBERS = 1000
GATED_ROUNDS = 9
TRAJECTORY = ((80, 3), (GATED_MEMBERS, GATED_ROUNDS)) + (
    () if QUICK else ((10000, 1),)
)
WORKER_COUNTS = (1, 2, 4)
FLEET_SIZE = 12 if QUICK else 80
HOURS = 2.0 if QUICK else 24.0
WARMUP_HOURS = 0.5 if QUICK else 2.0

BASELINE_PATH = (
    pathlib.Path(__file__).parent / "baselines" / "BENCH_parallel_baseline.json"
)
JSON_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_parallel.json"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def _engine_point(members: int, windows: int) -> dict:
    """Serial phase-split trajectory point: gen / engine step / ingest."""
    spec = FleetSpec(size=members, root=stream_root(0))
    fleet = [build_member(spec, i) for i in range(members)]
    engine = MemberBatch([member.deployment.service.master for member in fleet])
    clock_s = gen_s = run_s = ingest_s = 0.0
    # Engine members/s per window, as measured and at reference speed.
    rounds: list[float] = []
    scaled: list[float] = []
    for _ in range(windows):
        cal_ms = calibration_ms()
        t0 = time.perf_counter()
        batches = [
            member.workload.batch(
                WINDOW_S, start_time_s=clock_s + member.phase_offset_s
            )
            for member in fleet
        ]
        t1 = time.perf_counter()
        results = engine.step_window(batches)
        t2 = time.perf_counter()
        for member, result in zip(fleet, results):
            member.monitoring.ingest(result)
        clock_s += WINDOW_S
        t3 = time.perf_counter()
        gen_s += t1 - t0
        run_s += t2 - t1
        ingest_s += t3 - t2
        rounds.append(members / (t3 - t1))
        scaled.append(rounds[-1] * cal_ms / REFERENCE_MS)
    mw = members * windows
    return {
        "members": members,
        "windows": windows,
        "phase_s": {"gen": gen_s, "run": run_s, "ingest": ingest_s},
        "ms_per_member_window": {
            "gen": 1e3 * gen_s / mw,
            "run": 1e3 * run_s / mw,
            "ingest": 1e3 * ingest_s / mw,
        },
        "engine_members_per_s": mw / (run_s + ingest_s),
        "engine_members_per_s_rounds": rounds,
        "engine_members_per_s_median": statistics.median(rounds),
        "engine_members_per_s_ref_rounds": scaled,
        "engine_members_per_s_ref_median": statistics.median(scaled),
        "full_members_per_s": mw / (gen_s + run_s + ingest_s),
    }


def _fig09_point(workers: int) -> tuple[fig09.Fig09Run, dict]:
    stats = SessionStats()
    start = time.perf_counter()
    result = fig09.run(
        fleet_size=FLEET_SIZE,
        hours=HOURS,
        warmup_hours=WARMUP_HOURS,
        seed=0,
        workers=workers,
        stats=stats,
    )
    wall_s = time.perf_counter() - start
    steady = stats.steady_steps()
    peak = max((s.command_bytes for s in steady), default=0)
    mean = stats.mean_command_bytes()
    point = {
        "workers": workers,
        "backend": stats.backend,
        "wall_s": wall_s,
        "windows": len(stats.steps),
        "snapshot_bytes_per_worker": stats.snapshot_bytes,
        "final_snapshot_bytes": stats.final_snapshot_bytes,
        "window0_command_bytes": (
            stats.steps[0].command_bytes if stats.steps else 0
        ),
        "steady_command_bytes": {"mean": mean, "peak": peak},
        # vs what the pre-delta protocol would re-pickle at the last
        # window: the repository including every ingested sample.
        "bytes_vs_snapshot_rebroadcast": (
            stats.final_snapshot_bytes / mean if mean else None
        ),
        "phase_s": {
            "member_step": stats.total("step_s"),
            "serialize": stats.total("serialize_s"),
            "send": stats.total("send_s"),
            "recv_wait": stats.total("recv_s"),
            "reduce": stats.total("merge_s"),
        },
    }
    return result, point


def test_perf_parallel_members_trajectory(benchmark, emit):
    cores = _usable_cores()
    baseline = json.loads(BASELINE_PATH.read_text())

    def work() -> dict:
        report: dict = {
            "quick": QUICK,
            "usable_cores": cores,
            "engine_trajectory": [
                _engine_point(members, windows)
                for members, windows in TRAJECTORY
            ],
        }
        serial: fig09.Fig09Run | None = None
        runs = []
        for workers in WORKER_COUNTS:
            result, point = _fig09_point(workers)
            if serial is None:
                serial = result
                point["equal_to_serial"] = True
            else:
                point["equal_to_serial"] = result == serial
            runs.append(point)
        report["fig09"] = {
            "fleet_size": FLEET_SIZE,
            "hours": HOURS,
            "runs": runs,
        }
        return report

    report = run_once(benchmark, work)

    # --- equality: the hard invariant, asserted at every worker count.
    for point in report["fig09"]["runs"]:
        assert point["equal_to_serial"], (
            f"workers={point['workers']} diverged from serial"
        )

    # --- speedup: asserted only where it can physically hold.
    runs = {p["workers"]: p for p in report["fig09"]["runs"]}
    speedup = runs[1]["wall_s"] / runs[4]["wall_s"]
    fig = report["fig09"]
    fig["speedup_4_workers"] = speedup
    if QUICK:
        fig["speedup_skip_reason"] = (
            "PERF_QUICK profile: scenario too small to amortise fork cost"
        )
    elif cores < 2:
        fig["speedup_skip_reason"] = (
            f"only {cores} usable core(s) granted to this process"
        )
    elif cores < 4:
        fig["speedup_skip_reason"] = (
            f"{cores} usable cores < 4 workers; 2x not physically assertable"
        )
    else:
        fig["speedup_skip_reason"] = None

    # --- regression gates on the serial 1k-member engine rate, the
    # median over its per-window rounds.
    point_1k = next(
        p for p in report["engine_trajectory"] if p["members"] == GATED_MEMBERS
    )
    gates = {
        "rounds": GATED_ROUNDS,
        "engine_members_per_s_1k": point_1k["engine_members_per_s_ref_median"],
        "measured_members_per_s_1k": point_1k["engine_members_per_s_median"],
        "pr5_engine_members_per_s_1k": baseline["pr5_engine_members_per_s_1k"],
        "min_vs_pr5": 3.0 * baseline["pr5_engine_members_per_s_1k"],
        "baseline_engine_members_per_s_1k": baseline[
            "engine_members_per_s_1k"
        ],
        "regression_floor": 0.8 * baseline["engine_members_per_s_1k"],
    }
    report["gates"] = gates

    JSON_OUT.parent.mkdir(exist_ok=True)
    JSON_OUT.write_text(json.dumps(report, indent=1) + "\n")

    lines = [
        f"scenario: quick={QUICK} usable_cores={cores}",
        "engine trajectory (serial, phase-split):",
    ]
    for p in report["engine_trajectory"]:
        ms = p["ms_per_member_window"]
        lines.append(
            f"  {p['members']:>6} members x {p['windows']} windows: "
            f"engine {p['engine_members_per_s']:8.1f} members/s, "
            f"full {p['full_members_per_s']:7.1f} members/s "
            f"(gen {ms['gen']:.3f} / run {ms['run']:.3f} / "
            f"ingest {ms['ingest']:.3f} ms/mw)"
        )
    lines.append(
        f"fig09 executor scaling (fleet={FLEET_SIZE}, hours={HOURS:g}):"
    )
    for p in report["fig09"]["runs"]:
        ratio = p["bytes_vs_snapshot_rebroadcast"]
        lines.append(
            f"  workers={p['workers']}: {p['wall_s']:6.2f} s wall, "
            f"equal={p['equal_to_serial']}, "
            f"steady command {p['steady_command_bytes']['mean']:.0f} B/window"
            + (f" ({ratio:.1f}x under snapshot)" if ratio else "")
        )
    lines.append(
        f"speedup at 4 workers: {speedup:.2f}x"
        + (
            f" (assertion skipped: {fig['speedup_skip_reason']})"
            if fig["speedup_skip_reason"]
            else ""
        )
    )
    lines.append(
        f"serial 1k engine gate: {gates['engine_members_per_s_1k']:.1f} "
        f">= {gates['regression_floor']:.1f} members/s at reference speed "
        f"(median of {GATED_ROUNDS} windows; baseline "
        f"{gates['baseline_engine_members_per_s_1k']:.1f}); as measured "
        f"{gates['measured_members_per_s_1k']:.1f} >= {gates['min_vs_pr5']:.1f} "
        f"(3x PR-5 {gates['pr5_engine_members_per_s_1k']:.1f})"
    )
    emit("perf_parallel", "\n".join(lines))

    # Delta-only wire discipline holds at every process-backend point.
    for p in report["fig09"]["runs"]:
        if p["backend"] == "process":
            assert p["bytes_vs_snapshot_rebroadcast"] >= 10.0, (
                "steady-state command within 10x of a snapshot rebroadcast"
            )

    assert gates["measured_members_per_s_1k"] >= gates["min_vs_pr5"], (
        "columnar engine lost its >=3x margin over the PR-5 per-object loop"
    )
    assert gates["engine_members_per_s_1k"] >= gates["regression_floor"], (
        "serial 1k-member engine members/s regressed >20% vs committed "
        "baseline — update the baseline only with a justified perf change"
    )
    if fig["speedup_skip_reason"] is None:
        # Four shards of a compute-bound fleet on >= 4 cores: anything
        # under 2x means the executor is serialising somewhere.
        assert speedup >= 2.0
