#!/usr/bin/env python3
"""End-to-end tuning-loop benchmark: run one workload for one seed.

Usage, from the root of a checkout::

    python3 loopbench/run.py --workload fleet-tde --seed 1 --seconds 20 --trace 0

Workloads are defined in ``loopbench/scenarios.py``. With ``--trace 0``
a run makes the workload's sub-runs, each set up and stepped from its
own seed derived from ``--seed``, pools their timed windows and reports
the end-to-end metrics with tracing off. With ``--trace 1`` it repeats
sub-run 0 untraced and traced (plus, on ``fleet-tde``, as a plain
``fig09.run`` with no recorder), requires every repeat to produce the
same outputs, writes the spans and the per-layer ledger under
``loopbench/out/`` and reports the per-layer metrics.

The input size is fixed by ``--seconds``: each sub-run steps
``round(seconds * windows_per_s / SUB_RUNS)`` timed windows, never fewer
than leave ten pooled windows beyond p90, so one seed always gives the
same inputs and outputs. Timings are reported at reference host speed
(see ``loopbench/calibrate.py``); the values as measured are kept in the
results file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "loopbench" / "out"
BASELINE = ROOT / "loopbench" / "baseline.json"

#: Numerical-library threads, pinned before numpy is imported.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS = 1
#: Timed windows pooled over a run's reps: ten lie beyond p90.
MIN_WINDOW_SAMPLES = 100

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "member_windows_per_s": "1/s",
    "window_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tuning_requests_per_member_hour": "1/h",
    "db_tps_mean": "tps",
}

#: Reported with the end-to-end metrics but not gated. A window either
#: only steps the fleet or also serves tuning requests (70 ms or more
#: each); on ``landscape-governed`` nearly half the windows serve some,
#: so the median flips between those modes from seed to seed (spread
#: 0.26 of the median over ten seeds).
REPORTED = {"window_ms_p50": "ms"}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "workloads.batch_ms_per_mw": "ms",
    "workloads.sample_queries_per_mw": "count",
    "workloads.share": "ratio",
    "dbsim.step_window_ms_per_mw": "ms",
    "dbsim.run_ms_per_call": "ms",
    "dbsim.share": "ratio",
    "cloud.ingest_ms_per_mw": "ms",
    "cloud.share": "ratio",
    "core.tde.inspect_ms_per_mw": "ms",
    "core.tde.throttles_per_mw": "count",
    "core.tde.request_ratio": "ratio",
    "core.tde.share": "ratio",
    "core.director.route_self_ms_per_request": "ms",
    "core.director.governor_ms_per_window": "ms",
    "core.director.fallbacks": "count",
    "core.director.reverts": "count",
    "core.director.canary_rejections": "count",
    "core.director.share": "ratio",
    "tuners.recommend_ms_p50": "ms",
    "tuners.recommend_ms_p90": "ms",
    "tuners.recommend_calls": "count",
    "tuners.repo_add_ms_per_call": "ms",
    "tuners.repo_rows_end": "count",
    "tuners.surrogate_hit_ratio": "ratio",
    "tuners.knobselect_hit_ratio": "ratio",
    "tuners.share": "ratio",
    "core.apply.dfa_self_ms_per_call": "ms",
    "core.apply.landed_ratio": "ratio",
    "core.apply.reconcile_ms_per_tick": "ms",
    "core.apply.downtimes": "count",
    "core.apply.share": "ratio",
    "parallel.command_bytes_per_window": "bytes",
    "parallel.snapshot_bytes": "bytes",
    "parallel.serialize_ms_per_window": "ms",
    "parallel.merge_ms_per_window": "ms",
    "parallel.share": "ratio",
    "unattributed.share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class CheckFailed(Exception):
    """The program's outputs failed one of the benchmark's checks."""


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def windows_per_rep(seconds: int, windows_per_s: float, reps: int) -> int:
    """Timed windows per rep: *seconds* of work, never below the p90 floor."""
    return max(
        math.ceil(MIN_WINDOW_SAMPLES / reps), round(seconds * windows_per_s / reps)
    )


def check_agree(reps: list[Any], digest: Any) -> str:
    """Digest of the first counted rep's outputs.

    Every other rep must match that rep on the outputs both carry (a
    plain fig09 rep has no recorder, so no per-window request counts).
    """
    ref = next(rep for rep in reps if rep.mode == "counted")
    for rep in reps:
        shared = ref.outputs.keys() & rep.outputs.keys()
        differing = sorted(k for k in shared if ref.outputs[k] != rep.outputs[k])
        if differing:
            raise CheckFailed(
                f"{rep.mode} rep disagrees with the counted rep on "
                f"{', '.join(differing)}"
            )
    return str(digest(ref.outputs))


def _environment_summary() -> dict[str, Any]:
    """The host and interpreter a run measures on."""
    import numpy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _environment(workload: Any, seed: int, windows: int, reps: int) -> dict[str, Any]:
    return {
        **_environment_summary(),
        "seed": seed,
        "reps": reps,
        "timed_windows_per_rep": windows,
        "why": workload.why,
        **workload.provenance,
    }


def _baseline_digest(workload: str, seed: int, trace: int) -> str | None:
    """The digest recorded for this workload, seed and mode, if any."""
    if not BASELINE.is_file():
        return None
    recorded = json.loads(BASELINE.read_text())
    entry = recorded.get("workloads", {}).get(workload, {})
    found = entry.get("digests", {}).get(f"seed{seed}-trace{trace}")
    return str(found) if found is not None else None


def _scaled(ms: float, cal_ms: float) -> float:
    """*ms* measured while calibration took *cal_ms*, at reference speed."""
    from loopbench.calibrate import REFERENCE_MS

    return ms * REFERENCE_MS / cal_ms


def _windows(rep: Any, scale: bool) -> list[float]:
    if not scale:
        return list(rep.window_ms)
    return [_scaled(ms, cal) for ms, cal in zip(rep.window_ms, rep.window_cal_ms)]


def _end_to_end(
    workload: Any, reps: list[Any], windows: int, scale: bool = True
) -> dict[str, float]:
    """The end-to-end metrics; timings at reference speed unless not *scale*.

    Window percentiles and ``db_tps_mean`` pool every timed window of
    the sub-runs (p90 needs the pooled count to keep ten windows beyond
    it). Throughput and the request rate are medians over sub-runs: one
    sub-run whose fleet happens to throttle twice as often as the others
    moves them by one rank, not by a share of its excess.
    """
    from loopbench.stats import tail_percentile

    per_rep = [_windows(rep, scale) for rep in reps]
    pooled = [ms for windows_ms in per_rep for ms in windows_ms]
    setups = [
        _scaled(rep.setup_s, rep.setup_cal_ms) if scale else rep.setup_s
        for rep in reps
    ]
    member_hours = workload.members * windows * 300.0 / 3600.0
    return {
        "member_windows_per_s": statistics.median(
            rep.member_windows / (sum(ms) / 1000.0)
            for rep, ms in zip(reps, per_rep)
        ),
        "window_ms_p50": tail_percentile(pooled, 0.5),
        "window_ms_p90": tail_percentile(pooled, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tuning_requests_per_member_hour": statistics.median(
            rep.requests / member_hours for rep in reps
        ),
        # Sub-runs step equal member-window counts, so this is the mean
        # over every timed member-window.
        "db_tps_mean": statistics.fmean(rep.outputs["db_tps_mean"] for rep in reps),
    }


def _print_metrics(
    metrics: dict[str, float], units: dict[str, str], notes: dict[str, str]
) -> None:
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit:<6}{note}")


def _write_spans(path: Path, spans: list[Any]) -> None:
    with path.open("w") as out:
        for span in spans:
            out.write(
                json.dumps(
                    {
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "mw": f"{span.window}/{span.instance}",
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


def run(args: argparse.Namespace) -> dict[str, Any]:
    from loopbench.scenarios import SUB_RUNS, WORKLOADS, digest, sub_seed
    from loopbench.stats import samples_beyond

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"pick from {', '.join(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]
    windows = windows_per_rep(args.seconds, workload.windows_per_s, SUB_RUNS)
    if args.trace:
        plan = [(sub_seed(args.seed, 0), mode) for mode in workload.traced_modes]
    else:
        plan = [(sub_seed(args.seed, k), "counted") for k in range(SUB_RUNS)]
    env = _environment(workload, args.seed, windows, len(plan))
    env["sub_seeds"] = sorted({seed for seed, _ in plan})
    print(
        f"loopbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{len(plan)} sub-runs ({', '.join(f'{m} {s}' for s, m in plan)}) "
        f"x {windows} timed windows, {workload.members} members, "
        f"workers={WORKERS}, {BLAS_THREADS} BLAS thread, "
        f"{env['usable_cores']} usable cores",
        flush=True,
    )
    reps = []
    record: dict[str, Any] = {"environment": env, "sub_runs": []}
    for seed, mode in plan:
        rep = workload.run(seed, windows, mode)
        scaled = _windows(rep, True)
        record["sub_runs"].append(
            {
                "seed": seed,
                "mode": mode,
                "setup_s": rep.setup_s,
                "setup_cal_ms": rep.setup_cal_ms,
                "timed_s": rep.timed_s,
                "timed_s_scaled": sum(scaled) / 1000.0,
                "requests": rep.requests,
                "member_windows": rep.member_windows,
                "db_tps_mean": rep.outputs["db_tps_mean"],
                "digest": digest(rep.outputs),
            }
        )
        print(
            f"  sub-run {mode} seed {seed}: set-up {rep.setup_s:.3f} s, "
            f"{len(rep.window_ms)} windows in {rep.timed_s:.3f} s, "
            f"digest {digest(rep.outputs)[:16]}",
            flush=True,
        )
        reps.append(rep)
    correct = True
    if args.trace:
        try:
            found = check_agree(reps, digest)
        except CheckFailed as exc:
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            correct, found = False, ""
    else:
        found = digest([rep.outputs for rep in reps])
    timed = [rep for rep in reps if rep.mode != "plain"]
    env["repo_rows_start"] = [rep.repo_rows_start for rep in timed]
    env["repo_rows_end"] = [rep.repo_rows_end for rep in timed]
    attempted = sum(rep.attempted for rep in timed)
    failed = sum(rep.failed for rep in timed)
    if args.trace:
        counted = next(rep for rep in reps if rep.mode == "counted")
        traced = next(rep for rep in reps if rep.mode == "traced")
        assert traced.ledger is not None
        # Host ms at reference speed, like the end-to-end timings.
        speed = _scaled(1.0, statistics.median(traced.window_cal_ms))
        metrics = {
            name: value * speed if PER_LAYER[name] == "ms" else value
            for name, value in traced.layer_metrics.items()
        }
        metrics["trace.overhead_ratio"] = sum(_windows(traced, True)) / sum(
            _windows(counted, True)
        )
        units = PER_LAYER
        notes = {
            "tuners.recommend_ms_p90": (
                f"{samples_beyond(int(metrics['tuners.recommend_calls']), 0.9)}"
                " calls beyond"
            ),
        }
        _print_metrics(metrics, units, notes)
        print(
            f"  ledger over {traced.ledger.wall_s:.3f} s traced wall "
            f"(closes within {traced.ledger.closure_error():.3%}), by share:"
        )
        for layer, share in traced.ledger.ranked():
            print(f"    {layer:<16} {share:8.2%}")
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"{workload.name}-seed{args.seed}.spans.jsonl"
        _write_spans(spans_path, traced.spans)
        record["ledger"] = {
            "wall_s": traced.ledger.wall_s,
            "ranked": traced.ledger.ranked(),
            "self_s": traced.ledger.self_s,
            "calls": traced.ledger.calls,
        }
        print(f"  spans: {spans_path.relative_to(ROOT)}")
    else:
        metrics = _end_to_end(workload, reps, windows)
        measured = _end_to_end(workload, reps, windows, scale=False)
        record["measured_metrics"] = measured
        record["reported_metrics"] = {
            k: {"value": metrics[k], "unit": u} for k, u in REPORTED.items()
        }
        units = END_TO_END
        samples = sum(len(rep.window_ms) for rep in reps)
        speed = _scaled(1.0, statistics.median(
            cal for rep in reps for cal in rep.window_cal_ms
        ))
        print(
            f"  timings at reference speed: this host ran at {speed:.3f} of it "
            f"(measured values in loopbench/out/)"
        )
        notes = {
            "member_windows_per_s": (
                f"median of {len(reps)} sub-runs, "
                f"{sum(rep.member_windows for rep in reps)} member-windows over "
                f"{sum(rep.timed_s for rep in reps):.2f} s measured, "
                f"{measured['member_windows_per_s']:.4g}/s as measured"
            ),
            "tuning_requests_per_member_hour": f"median of {len(reps)} sub-runs",
            "window_ms_p50": f"n={samples} windows",
            "window_ms_p90": (
                f"n={samples} windows, {samples_beyond(samples, 0.9)} beyond"
            ),
            "setup_s": f"median of {len(reps)} set-ups",
        }
        _print_metrics(metrics, units, notes)
        print("  not gated:")
        _print_metrics(metrics, REPORTED, notes)
    ratio = failed / attempted
    print(
        f"  failed_ops_ratio {ratio:.6g} ({failed} of {attempted} operations; "
        f"canary rejections: {sum(rep.canary_rejections for rep in timed)})"
    )
    baseline = _baseline_digest(workload.name, args.seed, args.trace)
    verdict = (
        "not recorded"
        if baseline is None
        else ("same" if baseline == found else "changed")
    )
    agreement = f"{len(reps)} reps agree: {correct}; " if args.trace else ""
    print(f"  digest {found} ({agreement}baseline: {verdict})")
    record.update(
        digest=found,
        baseline_digest=verdict,
        correct=correct,
        attempted=attempted,
        failed=failed,
        failed_ops_ratio=ratio,
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        window_samples=sum(len(rep.window_ms) for rep in timed),
    )
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source under {src.name}/ next to "
            f"{Path(__file__).parent.name}/; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parents[1] != src:
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
