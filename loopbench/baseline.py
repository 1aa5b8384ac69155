#!/usr/bin/env python3
"""Record the benchmark's baseline: per-metric quartiles over many seeds.

Usage, from the root of a checkout::

    python3 loopbench/baseline.py --seeds 1-10 [--workload NAME ...]

Runs ``loopbench/run.py --trace 0`` once per workload listed in
``BENCHMARK.json`` and seed, one run at a time, then writes
``loopbench/baseline.json``: for every end-to-end metric the first
quartile, median and third quartile over the seeds (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, their
distance as a share of the median; and every run's output digest, which
``run.py`` compares against on later runs of the same seed. Entries of
workloads not named keep what was recorded before.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from loopbench.run import BASELINE, OUT, REPORTED, _environment_summary  # noqa: E402
from loopbench.stats import quartiles  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    workloads: dict[str, dict] = {}
    for name in names:
        results = []
        walls: list[float] = []
        for seed in args.seeds:
            command = [
                sys.executable, str(ROOT / "loopbench" / "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            begin = time.perf_counter()
            line = subprocess.run(
                command, check=True, capture_output=True, text=True, cwd=ROOT
            ).stdout.strip().splitlines()[-1]
            walls.append(time.perf_counter() - begin)
            result = json.loads(line)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: outputs failed the check")
            record = json.loads(
                (OUT / f"{name}-seed{seed}-trace0.json").read_text()
            )
            results.append((seed, result, record))
            print(f"{name} seed {seed}: {line}", flush=True)
        metrics = {}
        gated = [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]]
        for metric, unit, bound in gated + [
            (name, unit, None) for name, unit in REPORTED.items()
        ]:
            values = [
                record["metrics" if bound else "reported_metrics"][metric]["value"]
                for _, _, record in results
            ]
            q1, median, q3 = quartiles(values)
            metrics[metric] = {
                "unit": unit,
                "q1": q1,
                "median": median,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": bound,
            }
        workloads[name] = {
            "runs": len(results),
            "run_wall_s_median": statistics.median(walls),
            "metrics": metrics,
            "digests": {
                f"seed{seed}-trace0": record["digest"] for seed, _, record in results
            },
        }
    # Workloads not re-measured this time keep their recorded entries.
    recorded = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    recorded.setdefault("workloads", {}).update(workloads)
    for entry in workloads.values():
        entry.update(
            seeds=args.seeds,
            run_seconds=spec["run_seconds"],
            environment=_environment_summary(),
        )
    BASELINE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    for name, entry in workloads.items():
        for metric, row in entry["metrics"].items():
            print(
                f"{name:<20} {metric:<34} median {row['median']:<12.6g} "
                f"spread {row['spread']:.3f} (bound {row['bound']})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
