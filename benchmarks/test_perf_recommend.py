"""Bench: recommend() in the loop's pattern — screen and knob selection.

Three timed profiles and a Lasso lane, one JSON artifact
(``benchmarks/out/BENCH_recommend.json``). Every request lands right
after a fresh repository sample, the Fig. 9 pattern: in the closed loop
each TDE tuning request follows a sample upload, so every request
rebuilds its training set and refits the exact GPR (and, with the screen
armed, the coreset surrogate). The profiles:

- **off**: the full 720-candidate matrix goes through §4 budget repair
  and exact GP-UCB;
- **on**: the coreset-GP screen arms (``SurrogatePolicy``), so repair
  and exact GP-UCB run on a <= ``shortlist_size`` shortlist;
- **select**: the screen *plus* dynamic knob selection
  (``SelectionPolicy``): candidate generation, repair, the screen and
  the GP all run inside the per-workload active subspace (8 of 14
  catalog dims), with inactive knobs carried from the incumbent.

The **Lasso lane** times the exact path the knob selector re-ranks
with, :func:`repro.tuners.lasso._lasso_path`, against the per-event
reference it must match bit for bit
(:func:`tests.reference.lasso_path_per_event`), at d = 14 over 30
alphas: seeded designs with correlated column pairs plus the captured
governed problem in ``tests/fixtures/lasso_governed_problem.json``.

Each round times one request per profile, back to back, and grows each
training set by one sample. The ceilings read **best-of-rounds** (the
minimum over timed rounds): the steady-state cost of the code path with
scheduler and allocator noise removed; the mean is recorded alongside
for context. The screen's speedup is the **median of the per-round
ratios** off / on: a change in the host's speed (another process
starting or stopping) falls on both requests of a round alike, so each
ratio cancels it, where a ratio of two best-ofs can pair an off taken
while the box was idle with an on taken while it was loaded.

Gates:

- off stays under 4 ms and on under 3 ms. Best-of on a 2-core VM is
  1.2–2.2 ms off and 1.1–2.0 ms on over 24 runs, 12 quick and 12
  full (the range is the host's speed changing between runs);
- the screen's speedup (the median per-round off / on) stays within
  20% of the committed baseline
  (``benchmarks/baselines/BENCH_recommend_baseline.json``, which
  records the measured spread);
- the on profile hands exact scoring a shortlist no larger than the
  policy's ``shortlist_size`` (<= 16), on every request;
- select stays under its own ceiling, and its recorded subspace must be
  strictly smaller than the catalog. Selection re-ranks its subspace on
  every version bump, one exact Lasso path per request: select costs
  1.04–1.88x off in the same run (best-of 2.1–3.5 ms over the same
  runs), and its 5 ms ceiling keeps about 1.4x headroom;
- the Lasso lane's lean path is at least 1.5x faster than the
  per-event reference, a ratio taken within one run so the host's speed
  cancels (it read 1.83–2.62x over the same runs); every problem's two
  coefficient matrices must be equal bit for bit.

The speedup floor measures on against off, so it falls whenever the off
path gets faster; the absolute ceilings are what keep every path fast.

Set ``PERF_QUICK=1`` (CI) to reduce the number of timed rounds.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys
import time

import numpy as np
from conftest import run_once, thread_env

from repro.core.features import Features
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import offline_train
from repro.tuners.base import TrainingSample, TuningRequest
from repro.tuners.knob_selection import SelectionPolicy
from repro.tuners.lasso import _lasso_path, _standardised_problem
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.surrogate import SurrogatePolicy
from repro.workloads.tpcc import TPCCWorkload

# The reference path lives with the tests; ``pytest`` run as a command
# (not ``python -m pytest``) does not put the repository root on the path.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
from tests.reference import lasso_path_per_event  # noqa: E402

QUICK = os.environ.get("PERF_QUICK") == "1"
ROUNDS = 15 if QUICK else 50

BASELINE_PATH = (
    pathlib.Path(__file__).parent / "baselines" / "BENCH_recommend_baseline.json"
)
JSON_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_recommend.json"
LASSO_FIXTURE = REPO_ROOT / "tests" / "fixtures" / "lasso_governed_problem.json"

#: The screen's speedup must stay within 20% of the committed baseline.
REGRESSION_FRACTION = 0.8
#: Absolute ceilings per profile; see the module docstring.
OFF_MS_CEILING = 4.0
ON_MS_CEILING = 3.0
SELECT_MS_CEILING = 5.0
#: The lean Lasso path's same-run speedup over the per-event reference.
MIN_LASSO_SPEEDUP = 1.5
#: Seeded Lasso problems per lane round (plus the captured one).
LASSO_PROBLEMS = 40


def _build_tuner(
    surrogate: bool, selection: bool = False
) -> tuple[OtterTuneTuner, TuningRequest]:
    """One tuner plus a representative request, identical apart from the flags."""
    catalog = postgres_catalog()
    repository = offline_train(
        catalog,
        [TPCCWorkload(rps=500.0, data_size_gb=12.0, seed=21)],
        n_configs=40,
        seed=22,
    )
    tuner = OtterTuneTuner(catalog, repository, memory_limit_mb=6553.6, seed=23)
    tuner.configure(
        Features(
            surrogate=SurrogatePolicy() if surrogate else None,
            selection=SelectionPolicy() if selection else None,
        )
    )
    workload_id = repository.workload_ids()[0]
    sample = repository.samples(workload_id)[0]
    request = TuningRequest(
        "db0", workload_id, sample.config, sample.metrics, timestamp_s=0.0
    )
    return tuner, request


def _timings(profiles: dict[str, tuple[OtterTuneTuner, TuningRequest]]) -> dict:
    """Per-round, best-of and mean ms per profile, each request after a new sample."""
    seconds: dict[str, list[float]] = {name: [] for name in profiles}
    for i in range(ROUNDS):
        for name, (tuner, request) in profiles.items():
            sample = tuner.repository.samples(request.workload_id)[0]
            tuner.repository.add(
                TrainingSample(
                    request.workload_id, sample.config, sample.metrics, float(i)
                )
            )
            start = time.perf_counter()
            tuner.recommend(request)
            seconds[name].append(time.perf_counter() - start)
    return {
        f"{name}_ms": {
            "best": 1e3 * min(times),
            "mean": 1e3 * sum(times) / len(times),
            "rounds": [1e3 * t for t in times],
        }
        for name, times in seconds.items()
    }


def _lasso_problems() -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(gram, corr, alphas) at d = 14 over 30 alphas, as the selector ranks.

    Seeded 150-row designs whose odd columns lean on their even
    neighbours, with a sparse response, plus the captured governed
    problem.
    """
    rng = np.random.default_rng(14)
    pairs = []
    for _ in range(LASSO_PROBLEMS):
        z = rng.normal(size=(150, 14))
        x = z.copy()
        x[:, 1::2] = z[:, 0::2] + 0.5 * z[:, 1::2]
        beta = rng.normal(size=14) * (rng.random(14) < 0.6)
        xs, ys = _standardised_problem(x, x @ beta + rng.normal(size=150))
        pairs.append(((xs.T @ xs) / 150, (xs.T @ ys) / 150))
    captured = json.loads(LASSO_FIXTURE.read_text())
    pairs.append((np.array(captured["gram"]), np.array(captured["corr"])))
    return [
        (gram, corr, float(np.max(np.abs(corr))) * np.geomspace(1.0, 1e-3, 30))
        for gram, corr in pairs
    ]


def _lasso_lane() -> dict:
    """Best-of ms per path, lean and reference timed in alternating rounds."""
    problems = _lasso_problems()
    for problem in problems:
        lean = _lasso_path(*problem)
        assert lean.tobytes() == lasso_path_per_event(*problem).tobytes()
    best = {"reference": float("inf"), "lean": float("inf")}
    for _ in range(ROUNDS):
        for lane, path in (("reference", lasso_path_per_event), ("lean", _lasso_path)):
            start = time.perf_counter()
            for problem in problems:
                path(*problem)
            ms = 1e3 * (time.perf_counter() - start) / len(problems)
            best[lane] = min(best[lane], ms)
    return {
        "problems": len(problems),
        "d": 14,
        "n_alphas": 30,
        "reference_ms": best["reference"],
        "lean_ms": best["lean"],
        "speedup": best["reference"] / best["lean"],
    }


def test_perf_recommend_loop_pattern(benchmark, emit):
    # Quick and full time different round counts on differently loaded
    # boxes; each gates against its own committed measurement.
    baseline_speedup = json.loads(BASELINE_PATH.read_text())[
        "speedup_quick" if QUICK else "speedup_full"
    ]

    def work() -> dict:
        profiles = {
            "off": _build_tuner(surrogate=False),
            "on": _build_tuner(surrogate=True),
            "select": _build_tuner(surrogate=True, selection=True),
        }
        report: dict = {
            "quick": QUICK,
            "rounds": ROUNDS,
            "thread_env": thread_env(),
            **_timings(profiles),
        }
        screen = profiles["on"][0].surrogate_screen
        assert screen is not None
        report["screen"] = {
            "shortlist_size": screen.policy.shortlist_size,
            "max_coreset": screen.policy.max_coreset,
            "shortlists": screen.shortlists,
        }
        tuner_sel, request_sel = profiles["select"]
        selector = tuner_sel.knob_selector
        assert selector is not None
        active = selector.active_knobs(request_sel.workload_id)
        assert active is not None
        report["subspace"] = {
            "active": len(active),
            "total": selector.dimension,
            "reranks": selector.reranks,
        }
        report["lasso"] = _lasso_lane()
        return report

    report = run_once(benchmark, work)

    off, on, select = report["off_ms"], report["on_ms"], report["select_ms"]
    speedup = statistics.median(
        a / b for a, b in zip(off["rounds"], on["rounds"], strict=True)
    )
    report["speedup"] = speedup
    report["gates"] = {
        "baseline_speedup": baseline_speedup,
        "regression_floor": REGRESSION_FRACTION * baseline_speedup,
        "off_ms_ceiling": OFF_MS_CEILING,
        "on_ms_ceiling": ON_MS_CEILING,
        "select_ms_ceiling": SELECT_MS_CEILING,
        "min_lasso_speedup": MIN_LASSO_SPEEDUP,
    }

    JSON_OUT.parent.mkdir(exist_ok=True)
    JSON_OUT.write_text(json.dumps(report, indent=1) + "\n")

    screen = report["screen"]
    subspace = report["subspace"]
    lasso = report["lasso"]
    emit(
        "perf_recommend",
        f"rounds: {ROUNDS} (quick={QUICK}; best-of ceilings, median per-round "
        "speedup, a new sample "
        "before every request; BLAS threads: "
        f"{report['thread_env']['OPENBLAS_NUM_THREADS']})\n"
        f"off:    {off['best']:.2f} ms (ceiling {OFF_MS_CEILING:.1f} ms)\n"
        f"on:     {on['best']:.2f} ms (ceiling {ON_MS_CEILING:.1f} ms; "
        f"shortlist<={screen['shortlist_size']}, "
        f"coreset<={screen['max_coreset']})\n"
        f"select: {select['best']:.2f} ms (ceiling {SELECT_MS_CEILING:.1f} ms; "
        f"subspace {subspace['active']}/{subspace['total']})\n"
        f"screen speedup: {speedup:.2f}x (median per-round off/on; floor "
        f"{REGRESSION_FRACTION * baseline_speedup:.2f}x, baseline "
        f"{baseline_speedup:.2f}x)\n"
        f"screen: shortlists={screen['shortlists']}; "
        f"selector: reranks={subspace['reranks']}\n"
        f"lasso path (d={lasso['d']}, {lasso['n_alphas']} alphas, "
        f"{lasso['problems']} problems): reference {lasso['reference_ms']:.3f} ms, "
        f"lean {lasso['lean_ms']:.3f} ms, {lasso['speedup']:.2f}x "
        f"(floor {MIN_LASSO_SPEEDUP:.1f}x)",
    )

    # The screen served every request, each with a policy-sized shortlist.
    assert screen["shortlists"] == ROUNDS
    assert screen["shortlist_size"] <= 16

    assert off["best"] < OFF_MS_CEILING, (
        f"flag-off {off['best']:.2f} ms over the {OFF_MS_CEILING:.1f} ms ceiling"
    )
    assert on["best"] < ON_MS_CEILING, (
        f"flag-on {on['best']:.2f} ms over the {ON_MS_CEILING:.1f} ms ceiling"
    )
    assert speedup >= REGRESSION_FRACTION * baseline_speedup, (
        f"screen speedup {speedup:.2f}x regressed >20% vs committed baseline "
        f"{baseline_speedup:.2f}x — update the baseline only with "
        "a justified perf change"
    )

    # The select profile tunes a strictly smaller space.
    assert 0 < subspace["active"] < subspace["total"]
    assert select["best"] < SELECT_MS_CEILING, (
        f"select {select['best']:.2f} ms over the "
        f"{SELECT_MS_CEILING:.1f} ms ceiling"
    )

    # The lean path beats its per-event reference in the same run.
    assert lasso["speedup"] >= MIN_LASSO_SPEEDUP, (
        f"lean Lasso path only {lasso['speedup']:.2f}x faster than the "
        f"per-event reference (floor {MIN_LASSO_SPEEDUP:.1f}x)"
    )
