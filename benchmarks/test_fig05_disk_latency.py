"""Bench: Fig. 5 — TPC-C disk write latency, default vs tuned config."""

import numpy as np
from conftest import run_once

from repro.experiments import fig05_disk_latency, format_table


def test_fig05_disk_latency(benchmark, emit):
    run = run_once(benchmark, fig05_disk_latency.run, duration_s=900.0, rps=1500.0)
    _, default_minutely = fig05_disk_latency.resample_mean(
        run.times, run.default_latency, 60.0
    )
    _, tuned_minutely = fig05_disk_latency.resample_mean(
        run.times, run.tuned_latency, 60.0
    )
    emit(
        "fig05_disk_latency",
        format_table(
            ("minute", "default ms", "tuned ms"),
            [
                (i, f"{d:.2f}", f"{t:.2f}")
                for i, (d, t) in enumerate(zip(default_minutely, tuned_minutely))
            ],
        )
        + (
            f"\nmean default {run.default_mean_ms:.2f} ms"
            f"  mean tuned {run.tuned_mean_ms:.2f} ms"
        ),
    )
    # Paper shape: the tuned configuration's write latency is much lower
    # and its worst case (the checkpoint surges of the default trace)
    # shrinks drastically.
    assert run.tuned_mean_ms < run.default_mean_ms * 0.6
    assert np.max(run.tuned_latency) < np.max(run.default_latency)
