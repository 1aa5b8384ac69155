"""Bench: the TDE's columnar inspect against its per-query reference.

Once per window every fleet member's Throttling Detection Engine runs
the memory, bgwriter and (every 4th window) planner detectors. The
planner probe scores the live configuration and one perturbation per
async/planner knob from the reservoir's plan columns
(:class:`~repro.dbsim.planner.PlanColumns`), and the memory detector's
spill check compares each template's example row with the working-area
allowances.

**reference** swaps in the forms from ``tests/reference.py``: the probe
EXPLAINs every reservoir query under every configuration, and the spill
check EXPLAINs every template's example. Both lanes step their own copy
of one seeded 25-member production fleet (fig09's paper-scale members:
64 sampled statements per 5-minute window, the offline-trained
repository) through the same windows; every window's reports and, at the
end, every automaton's action probabilities and generator state must be
equal. ``inspect`` is timed per member-window, for planner windows and
the other windows apart; each window times the lanes in alternating
order. Timings are the best of the rounds, in µs per member-window, in
``benchmarks/out/BENCH_tde.json`` with the run's usable cores and
numerical-library thread settings.

Gate: on planner windows the columnar lane is at least
:data:`MIN_SPEEDUP` times faster than the reference, a ratio measured
in one run, so the host's speed cancels. The committed measurement is
``benchmarks/baselines/BENCH_tde_baseline.json``. ``PERF_QUICK=1`` (CI)
runs fewer rounds and windows.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

from conftest import run_once, thread_env

from repro.cloud.fleet import FleetSpec, build_member
from repro.common.rng import stream_root
from repro.core.tde.engine import ThrottlingDetectionEngine
from repro.dbsim.batch_engine import MemberBatch
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import offline_train
from repro.workloads.production import ProductionWorkload

# The reference forms live with the tests; ``pytest`` run as a command
# (not ``python -m pytest``) does not put the repository root on the path.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.reference import probe_per_query, spills_per_query  # noqa: E402

QUICK = os.environ.get("PERF_QUICK") == "1"
ROUNDS = 2 if QUICK else 4
FLEET = 25
SEED = 1
WINDOW_S = 300.0
#: Untimed windows first: the reservoirs fill and the automata move.
WARMUP_WINDOWS = 4
#: Timed windows; every 4th is a planner window.
TIMED_WINDOWS = 8 if QUICK else 16
#: The timed lanes, in table order.
LANES = ("reference", "columnar")
KINDS = ("planner", "other")
#: The columnar lane's same-run speedup over the reference, planner windows.
MIN_SPEEDUP = 1.8

JSON_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_tde.json"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1


def _use_reference(tde: ThrottlingDetectionEngine) -> None:
    """Score *tde*'s probe and spill check one EXPLAIN per query."""
    planner, memory = tde.planner_detector, tde.memory_detector
    planner.probe = lambda db, _columns: probe_per_query(
        planner, db, planner.reservoir.sample
    )
    memory._spills = lambda db: spills_per_query(memory, db)


class _Lane:
    """One copy of the seeded fleet, its TDEs scored one way."""

    def __init__(self, lane: str) -> None:
        repository = offline_train(
            postgres_catalog(),
            [
                ProductionWorkload(
                    mean_rps=10_000.0, data_size_gb=30.0, seed=SEED + 90,
                    name="production-offline",
                )
            ],
            n_configs=14,
            seed=SEED + 91,
        )
        spec = FleetSpec(size=FLEET, root=stream_root(SEED), sample_size=64)
        self.members = [build_member(spec, i) for i in range(FLEET)]
        masters = [m.deployment.service.master for m in self.members]
        self.tdes = [
            ThrottlingDetectionEngine(m.instance_id, db, repository, seed=SEED + i)
            for i, (m, db) in enumerate(zip(self.members, masters))
        ]
        if lane == "reference":
            for tde in self.tdes:
                _use_reference(tde)
        self.engine = MemberBatch(masters)
        self.clock_s = 0.0

    def step(self) -> list:
        batches = [
            m.workload.batch(WINDOW_S, start_time_s=self.clock_s + m.phase_offset_s)
            for m in self.members
        ]
        self.clock_s += WINDOW_S
        return self.engine.step_window(batches)

    def inspect(self, results: list) -> tuple[float, list]:
        start = time.perf_counter()
        reports = [tde.inspect(result) for tde, result in zip(self.tdes, results)]
        return time.perf_counter() - start, reports


def _round() -> dict[str, dict[str, float]]:
    """µs per member-window per lane and window kind, one fresh chain."""
    lanes = {lane: _Lane(lane) for lane in LANES}
    seconds = {lane: {kind: 0.0 for kind in KINDS} for lane in LANES}
    windows = {kind: 0 for kind in KINDS}
    for w in range(WARMUP_WINDOWS + TIMED_WINDOWS):
        kind = "planner" if w % 4 == 0 else "other"
        results = {lane: lanes[lane].step() for lane in LANES}
        reports = {}
        order = LANES if w % 2 == 0 else LANES[::-1]
        for lane in order:
            took, reports[lane] = lanes[lane].inspect(results[lane])
            if w >= WARMUP_WINDOWS:
                seconds[lane][kind] += took
        assert reports["columnar"] == reports["reference"], f"window {w}"
        if w >= WARMUP_WINDOWS:
            windows[kind] += 1
    for columnar, reference in zip(lanes["columnar"].tdes, lanes["reference"].tdes):
        for name, automaton in columnar.planner_detector.automata.items():
            twin = reference.planner_detector.automata[name]
            assert automaton._p == twin._p
            assert automaton._rng.bit_generator.state == twin._rng.bit_generator.state
    return {
        lane: {kind: 1e6 * seconds[lane][kind] / (FLEET * windows[kind]) for kind in KINDS}
        for lane in LANES
    }


def test_perf_tde_lanes(benchmark, emit):
    def work() -> dict:
        best: dict[str, dict[str, float]] = {}
        for _ in range(ROUNDS):
            for lane, row in _round().items():
                kept = best.setdefault(lane, dict(row))
                for kind, us in row.items():
                    kept[kind] = min(kept[kind], us)
        return {
            "quick": QUICK,
            "rounds": ROUNDS,
            "usable_cores": _usable_cores(),
            "thread_env": thread_env(),
            "fleet": FLEET,
            "timed_windows": TIMED_WINDOWS,
            "unit": "us per member-window, best of rounds",
            "lanes": {
                lane: {f"{kind}_us": round(us, 1) for kind, us in row.items()}
                for lane, row in best.items()
            },
        }

    report = run_once(benchmark, work)
    lanes = report["lanes"]
    speedup = lanes["reference"]["planner_us"] / lanes["columnar"]["planner_us"]
    report["speedup_planner_windows"] = round(speedup, 2)
    report["speedup_other_windows"] = round(
        lanes["reference"]["other_us"] / lanes["columnar"]["other_us"], 2
    )
    report["gates"] = {"min_speedup_planner_windows": MIN_SPEEDUP}
    JSON_OUT.parent.mkdir(exist_ok=True)
    JSON_OUT.write_text(json.dumps(report, indent=1) + "\n")

    lines = [
        f"rounds: {ROUNDS} (quick={QUICK}); usable cores: {report['usable_cores']}; "
        f"BLAS threads: {report['thread_env']['OPENBLAS_NUM_THREADS']}; "
        f"{FLEET} members, {TIMED_WINDOWS} timed windows; "
        "us per member-window, best of rounds",
        "  lane         planner    other",
    ]
    for lane in LANES:
        row = lanes[lane]
        lines.append(f"  {lane:<11}{row['planner_us']:>8.0f} {row['other_us']:>8.0f}")
    lines.append(
        f"columnar speedup over the reference: planner windows {speedup:.2f}x "
        f"(floor {MIN_SPEEDUP:.1f}x), other windows "
        f"{report['speedup_other_windows']:.2f}x"
    )
    emit("perf_tde", "\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"columnar inspect only {speedup:.2f}x faster than the per-query "
        f"reference on planner windows (floor {MIN_SPEEDUP:.1f}x)"
    )
