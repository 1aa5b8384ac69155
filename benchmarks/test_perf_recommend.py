"""Bench: recommend() in the loop's pattern — screen and knob selection.

Three timed profiles, one JSON artifact
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

Timing is **best-of-rounds** (the minimum over timed rounds): the
steady-state cost of the code path with scheduler and allocator noise
removed, which is what the speedup ratio gate needs to be stable on
shared CI boxes. The mean is recorded alongside for context. Each round
times one request per profile, so a change in the host's speed falls on
every profile alike, and grows each training set by one sample, so the
best case tends to land on the smallest set.

Gates:

- off stays under 4 ms and on under 3 ms. Best-of on a 2-core VM is
  1.7–2.9 ms off and 1.2–2.1 ms on over 24 runs (the range is the
  host's speed changing between runs);
- the screen's speedup (off / on) stays within 20% of the committed
  baseline (``benchmarks/baselines/BENCH_recommend_baseline.json``);
  it read 1.30–1.71x over the same runs;
- the on profile hands exact scoring a shortlist no larger than the
  policy's ``shortlist_size`` (<= 16), on every request;
- select stays under its own ceiling, and its recorded subspace must be
  strictly smaller than the catalog. Selection re-ranks its subspace on
  every version bump, which costs more than the smaller space saves:
  select is *slower* than off (best-of 2.7–4.5 ms on the same VM), and
  its 7 ms ceiling keeps the same ~1.5x headroom as the others.

The speedup floor measures on against off, so it falls whenever the off
path gets faster; the absolute ceilings are what keep every path fast.

Set ``PERF_QUICK=1`` (CI) to reduce the number of timed rounds.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from conftest import run_once

from repro.core.features import Features
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import offline_train
from repro.tuners.base import TrainingSample, TuningRequest
from repro.tuners.knob_selection import SelectionPolicy
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.surrogate import SurrogatePolicy
from repro.workloads.tpcc import TPCCWorkload

QUICK = os.environ.get("PERF_QUICK") == "1"
ROUNDS = 15 if QUICK else 50

BASELINE_PATH = (
    pathlib.Path(__file__).parent / "baselines" / "BENCH_recommend_baseline.json"
)
JSON_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_recommend.json"

#: The screen's speedup must stay within 20% of the committed baseline.
REGRESSION_FRACTION = 0.8
#: Absolute ceilings per profile; see the module docstring.
OFF_MS_CEILING = 4.0
ON_MS_CEILING = 3.0
SELECT_MS_CEILING = 7.0


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
    """Best-of/mean milliseconds per profile, each request after a new sample."""
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
        }
        for name, times in seconds.items()
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
        report: dict = {"quick": QUICK, "rounds": ROUNDS, **_timings(profiles)}
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
        return report

    report = run_once(benchmark, work)

    off, on, select = report["off_ms"], report["on_ms"], report["select_ms"]
    speedup = off["best"] / on["best"]
    report["speedup"] = speedup
    report["gates"] = {
        "baseline_speedup": baseline_speedup,
        "regression_floor": REGRESSION_FRACTION * baseline_speedup,
        "off_ms_ceiling": OFF_MS_CEILING,
        "on_ms_ceiling": ON_MS_CEILING,
        "select_ms_ceiling": SELECT_MS_CEILING,
    }

    JSON_OUT.parent.mkdir(exist_ok=True)
    JSON_OUT.write_text(json.dumps(report, indent=1) + "\n")

    screen = report["screen"]
    subspace = report["subspace"]
    emit(
        "perf_recommend",
        f"rounds: {ROUNDS} (quick={QUICK}; best-of timing, a new sample "
        "before every request)\n"
        f"off:    {off['best']:.2f} ms (ceiling {OFF_MS_CEILING:.1f} ms)\n"
        f"on:     {on['best']:.2f} ms (ceiling {ON_MS_CEILING:.1f} ms; "
        f"shortlist<={screen['shortlist_size']}, "
        f"coreset<={screen['max_coreset']})\n"
        f"select: {select['best']:.2f} ms (ceiling {SELECT_MS_CEILING:.1f} ms; "
        f"subspace {subspace['active']}/{subspace['total']})\n"
        f"screen speedup: {speedup:.2f}x (floor "
        f"{REGRESSION_FRACTION * baseline_speedup:.2f}x, baseline "
        f"{baseline_speedup:.2f}x)\n"
        f"screen: shortlists={screen['shortlists']}; "
        f"selector: reranks={subspace['reranks']}",
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
