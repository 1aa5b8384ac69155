"""Bench: recommend() cold/warm trajectory — screen and knob selection.

Six timed points, one JSON artifact (``benchmarks/out/BENCH_recommend.json``):

- **cold** requests land right after a fresh repository sample (the
  Fig. 9 pattern: every TDE tuning request is preceded by an upload), so
  the exact GPR refits — and with the screen armed the coreset surrogate
  refits too;
- **warm** requests hit an unchanged repository version and are served
  from the version-keyed caches; with the screen armed, §4 budget repair
  and exact GP-UCB run on a <= ``shortlist_size`` shortlist instead of
  the full 720-candidate matrix;
- the **select** profile arms the screen *plus* dynamic knob selection
  (``SelectionPolicy``): candidate generation, repair, the screen and
  the GP all run inside the per-workload active subspace (8 of 14
  catalog dims), with inactive knobs carried from the incumbent.

Timing is **best-of-rounds** (the minimum over timed rounds): the
steady-state cost of the code path with scheduler and allocator noise
removed, which is what the speedup ratio gate needs to be stable on
shared CI boxes. The mean is recorded alongside for context.

Gates:

- warm speedup (flag-off / flag-on) >= 2x, and within 20% of the
  committed baseline (``benchmarks/baselines/BENCH_recommend_baseline.json``);
- the flag-on path hands exact scoring a shortlist no larger than the
  policy's ``shortlist_size`` (<= 16);
- cold recommends, the version-bump-per-request pattern the closed loop
  runs, stay under 4 ms flag-off and 3 ms flag-on, on both profiles.
  Best-of on a 2-core VM is 1.7–2.9 ms off and 1.1–2.0 ms on (the
  range is the host's speed changing between runs). LU solves on the
  Cholesky factor in place of its inverse cost ~0.8 ms more per cold
  flag-off request;
- warm flag-on recommend stays under 1.5 ms (full profile only).
  Typical quiet-box best-of is 0.45–0.85 ms — the sub-millisecond
  number the JSON artifact records — but contended boxes show tails to
  ~1.1 ms, so the hard gate leaves headroom;
- the select profile's warm speedup over flag-off must hold its own
  (lenient) floor and stay within 20% of its committed baseline, and
  its recorded subspace must be strictly smaller than the catalog.

The speedup floors measure flag-on against flag-off, so they fall
whenever the flag-off path gets faster; the absolute ceilings are what
keep both paths fast.

Set ``PERF_QUICK=1`` (CI) to reduce the number of timed rounds.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from conftest import run_once

from repro.core.features import Features
from repro.dbsim.knobs import KnobCatalog, postgres_catalog
from repro.experiments.common import offline_train
from repro.tuners.base import TrainingSample, TuningRequest
from repro.tuners.knob_selection import SelectionPolicy
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.repository import WorkloadRepository
from repro.tuners.surrogate import SurrogatePolicy
from repro.workloads.tpcc import TPCCWorkload

QUICK = os.environ.get("PERF_QUICK") == "1"
ROUNDS = 15 if QUICK else 50

BASELINE_PATH = (
    pathlib.Path(__file__).parent / "baselines" / "BENCH_recommend_baseline.json"
)
JSON_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_recommend.json"

#: Warm flag-on must beat warm flag-off by at least this factor.
MIN_WARM_SPEEDUP = 2.0
#: And stay within 20% of the committed baseline's measured speedup.
REGRESSION_FRACTION = 0.8
#: Absolute warm flag-on ceiling (full profile); see the module docstring.
WARM_ON_MS_CEILING = 1.5
#: Absolute cold ceilings, flag-off and flag-on (both profiles).
COLD_OFF_MS_CEILING = 4.0
COLD_ON_MS_CEILING = 3.0
#: Warm select-profile speedup over flag-off must hold this floor. More
#: lenient than the screen's: selection trades a little warm latency
#: headroom (selector bookkeeping) for the smaller optimisation space.
MIN_SELECT_WARM_SPEEDUP = 1.5


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
    tuner = _tuner_over(
        catalog,
        repository,
        Features(
            surrogate=SurrogatePolicy() if surrogate else None,
            selection=SelectionPolicy() if selection else None,
        ),
    )
    workload_id = repository.workload_ids()[0]
    sample = repository.samples(workload_id)[0]
    request = TuningRequest(
        "db0", workload_id, sample.config, sample.metrics, timestamp_s=0.0
    )
    return tuner, request


def _tuner_over(
    catalog: KnobCatalog,
    repository: WorkloadRepository,
    features: Features,
) -> OtterTuneTuner:
    """The bench's tuner over *repository*, with empty fit caches."""
    tuner = OtterTuneTuner(catalog, repository, memory_limit_mb=6553.6, seed=23)
    tuner.configure(features)
    return tuner


def _best_and_mean(seconds: list[float]) -> dict:
    return {
        "best": 1e3 * min(seconds),
        "mean": 1e3 * sum(seconds) / len(seconds),
    }


def _trajectory(tuner: OtterTuneTuner, request: TuningRequest) -> dict:
    """Cold then warm best-of/mean timings for one tuner.

    ``cold_final_ms`` times cold requests at the warm rounds' repository
    version: each round is a fresh tuner over the same repository, so it
    refits on a training set exactly as large as the warm one. The cold
    rounds proper grow the set by one sample each, so their best case
    lands on a smaller set than any warm request sees; only
    ``cold_final_ms`` is a like-for-like reference for the warm path.
    Its rounds alternate with the warm ones, so a change in the host's
    speed falls on both sides of that comparison.
    """
    repository = tuner.repository
    sample = repository.samples(request.workload_id)[0]
    cold: list[float] = []
    for i in range(ROUNDS):
        repository.add(
            TrainingSample(
                request.workload_id, sample.config, sample.metrics, float(i)
            )
        )
        start = time.perf_counter()
        tuner.recommend(request)
        cold.append(time.perf_counter() - start)
    screen = tuner.surrogate_screen
    selector = tuner.knob_selector
    warm: list[float] = []
    cold_final: list[float] = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        tuner.recommend(request)
        warm.append(time.perf_counter() - start)
        fresh = _tuner_over(
            tuner.catalog,
            repository,
            Features(
                surrogate=screen.policy if screen is not None else None,
                selection=selector.policy if selector is not None else None,
            ),
        )
        start = time.perf_counter()
        fresh.recommend(request)
        cold_final.append(time.perf_counter() - start)
    return {
        "cold_ms": _best_and_mean(cold),
        "warm_ms": _best_and_mean(warm),
        "cold_final_ms": _best_and_mean(cold_final),
    }


def test_perf_recommend_trajectory(benchmark, emit):
    # The two profiles time different round counts on differently loaded
    # boxes; each gates against its own committed measurement.
    baselines = json.loads(BASELINE_PATH.read_text())
    baseline_speedup = baselines[
        "warm_speedup_quick" if QUICK else "warm_speedup_full"
    ]
    baseline_select = baselines[
        "select_warm_speedup_quick" if QUICK else "select_warm_speedup_full"
    ]

    def work() -> dict:
        report: dict = {"quick": QUICK, "rounds": ROUNDS}
        tuner_off, request_off = _build_tuner(surrogate=False)
        report["surrogate_off"] = _trajectory(tuner_off, request_off)
        tuner_on, request_on = _build_tuner(surrogate=True)
        report["surrogate_on"] = _trajectory(tuner_on, request_on)
        screen = tuner_on.surrogate_screen
        assert screen is not None
        report["screen"] = {
            "shortlist_size": screen.policy.shortlist_size,
            "max_coreset": screen.policy.max_coreset,
            "shortlists": screen.shortlists,
            "retrains": screen.retrains,
            "hits": screen.hits,
        }
        tuner_sel, request_sel = _build_tuner(surrogate=True, selection=True)
        report["select_on"] = _trajectory(tuner_sel, request_sel)
        selector = tuner_sel.knob_selector
        assert selector is not None
        active = selector.active_knobs(request_sel.workload_id)
        assert active is not None
        report["subspace"] = {
            "active": len(active),
            "total": selector.dimension,
            "reranks": selector.reranks,
            "reuses": selector.reuses,
            "hits": selector.hits,
        }
        return report

    report = run_once(benchmark, work)

    off, on = report["surrogate_off"], report["surrogate_on"]
    select = report["select_on"]
    speedup = off["warm_ms"]["best"] / on["warm_ms"]["best"]
    select_speedup = off["warm_ms"]["best"] / select["warm_ms"]["best"]
    report["warm_speedup"] = speedup
    report["select_warm_speedup"] = select_speedup
    report["gates"] = {
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        "baseline_warm_speedup": baseline_speedup,
        "regression_floor": REGRESSION_FRACTION * baseline_speedup,
        "min_select_warm_speedup": MIN_SELECT_WARM_SPEEDUP,
        "baseline_select_warm_speedup": baseline_select,
        "select_regression_floor": REGRESSION_FRACTION * baseline_select,
        "warm_on_ms_ceiling_asserted": (WARM_ON_MS_CEILING if not QUICK else None),
        "cold_off_ms_ceiling": COLD_OFF_MS_CEILING,
        "cold_on_ms_ceiling": COLD_ON_MS_CEILING,
    }

    JSON_OUT.parent.mkdir(exist_ok=True)
    JSON_OUT.write_text(json.dumps(report, indent=1) + "\n")

    screen = report["screen"]
    subspace = report["subspace"]
    emit(
        "perf_recommend",
        f"rounds: {ROUNDS} (quick={QUICK}; best-of timing)\n"
        f"surrogate off: cold {off['cold_ms']['best']:.2f} ms, "
        f"warm {off['warm_ms']['best']:.2f} ms\n"
        f"surrogate on:  cold {on['cold_ms']['best']:.2f} ms, "
        f"warm {on['warm_ms']['best']:.2f} ms "
        f"(shortlist<={screen['shortlist_size']}, "
        f"coreset<={screen['max_coreset']})\n"
        f"select on:     cold {select['cold_ms']['best']:.2f} ms, "
        f"warm {select['warm_ms']['best']:.2f} ms "
        f"(subspace {subspace['active']}/{subspace['total']})\n"
        f"warm speedup: {speedup:.2f}x "
        f"(gate >= {MIN_WARM_SPEEDUP:.1f}x, baseline "
        f"{baseline_speedup:.2f}x); select {select_speedup:.2f}x "
        f"(gate >= {MIN_SELECT_WARM_SPEEDUP:.1f}x, baseline "
        f"{baseline_select:.2f}x)\n"
        f"cold ceilings: off < {COLD_OFF_MS_CEILING:.1f} ms, "
        f"on < {COLD_ON_MS_CEILING:.1f} ms\n"
        f"screen counters: shortlists={screen['shortlists']} "
        f"retrains={screen['retrains']} hits={screen['hits']}; "
        f"selector: reranks={subspace['reranks']} "
        f"reuses={subspace['reuses']} hits={subspace['hits']}",
    )

    # The screen served every request past the policy threshold, and the
    # warm half of each trajectory hit the version-keyed model cache.
    assert screen["shortlists"] == 2 * ROUNDS
    assert screen["hits"] >= ROUNDS
    assert screen["shortlist_size"] <= 16

    # Warm requests reuse version-keyed fits on both paths: cheaper than
    # a cold request on the same training set.
    assert off["warm_ms"]["best"] <= off["cold_final_ms"]["best"]
    assert on["warm_ms"]["best"] <= on["cold_final_ms"]["best"]

    # The loop's own pattern: every request follows a version bump.
    assert off["cold_ms"]["best"] < COLD_OFF_MS_CEILING, (
        f"cold flag-off {off['cold_ms']['best']:.2f} ms over the "
        f"{COLD_OFF_MS_CEILING:.1f} ms ceiling"
    )
    assert on["cold_ms"]["best"] < COLD_ON_MS_CEILING, (
        f"cold flag-on {on['cold_ms']['best']:.2f} ms over the "
        f"{COLD_ON_MS_CEILING:.1f} ms ceiling"
    )

    # The headline gate: screening must buy >= 2x on the warm path and
    # must not regress more than 20% against the committed baseline.
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm speedup {speedup:.2f}x below the {MIN_WARM_SPEEDUP:.1f}x gate"
    )
    assert speedup >= REGRESSION_FRACTION * baseline_speedup, (
        f"warm speedup {speedup:.2f}x regressed >20% vs committed baseline "
        f"{baseline_speedup:.2f}x — update the baseline only with "
        "a justified perf change"
    )
    # The select profile tunes a strictly smaller space and must keep
    # most of the screened path's warm advantage.
    assert 0 < subspace["active"] < subspace["total"]
    assert select["warm_ms"]["best"] <= select["cold_final_ms"]["best"]
    assert select_speedup >= MIN_SELECT_WARM_SPEEDUP, (
        f"select warm speedup {select_speedup:.2f}x below the "
        f"{MIN_SELECT_WARM_SPEEDUP:.1f}x gate"
    )
    assert select_speedup >= REGRESSION_FRACTION * baseline_select, (
        f"select warm speedup {select_speedup:.2f}x regressed >20% vs "
        f"committed baseline {baseline_select:.2f}x — update the baseline "
        "only with a justified perf change"
    )

    if not QUICK:
        # Absolute time, asserted only on the full profile where the box
        # is presumed quiet: the warm-path latency target with headroom
        # for scheduler tails (see the module docstring).
        assert on["warm_ms"]["best"] < WARM_ON_MS_CEILING
