"""Trace harness: run an experiment under a live recorder, export it.

This is the engine behind the ``repro trace`` CLI subcommand and the
golden-trace tests. It wires one :class:`~repro.obs.trace.TraceRecorder`
into an existing experiment driver — the quick chaos profile or a small
fig09-style fleet run — and packages the deterministic artifacts: the
canonical JSONL trace, the Chrome/Perfetto trace-event JSON, the span
profile table, the Prometheus rendering of the metrics registry and a
one-screen stdout summary with the trace's SHA-256 digest.

Every artifact except host-time profile columns is byte-identical for
identical arguments; the digest in the summary is what the golden tests
pin.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.cloud.metrics_export import (
    describe_counter_families,
    render_registry,
)
from repro.core.features import FEATURE_METRIC_FAMILIES, Features
from repro.experiments import chaos_recovery
from repro.experiments import fig09_requests_per_minute as fig09
from repro.obs.export import to_chrome_trace, to_jsonl
from repro.obs.profile import profile, render_profile
from repro.obs.trace import TraceRecorder
from repro.parallel.stats import SessionStats, render_session_stats

__all__ = ["EXPERIMENTS", "TraceArtifacts", "run"]

#: Experiments the harness can trace.
EXPERIMENTS = ("chaos", "fleet")


@dataclass
class TraceArtifacts:
    """Everything one traced run produced."""

    experiment: str
    seed: int
    headline: str
    jsonl: str
    chrome_json: str
    profile_table: str
    metrics_text: str
    recorder: TraceRecorder
    #: Executor pipe-seam accounting (fleet experiment only): bytes
    #: serialized per window and the step/serialize/reduce time split.
    #: Rendered for ``--profile``; never part of the digest-pinned trace.
    pipe_table: str = ""

    @property
    def digest(self) -> str:
        """SHA-256 of the canonical JSONL trace (the golden pin)."""
        return hashlib.sha256(self.jsonl.encode()).hexdigest()

    def summary(self) -> str:
        """Deterministic one-screen stdout summary."""
        recorder = self.recorder
        metric_samples = sum(1 for _ in recorder.metrics.samples())
        lines = [
            f"trace: experiment={self.experiment} seed={self.seed}",
            self.headline,
            (
                f"recorded: spans={len(recorder.spans)} "
                f"events={len(recorder.events)} "
                f"metric_samples={metric_samples}"
            ),
            f"jsonl sha256: {self.digest}",
        ]
        return "\n".join(lines) + "\n"


def run(
    experiment: str = "chaos",
    seed: int = 0,
    host_time: bool = False,
    fleet_size: int = 3,
    hours: float = 1.0,
    warmup_hours: float = 0.5,
    workers: int = 1,
    features: Features = Features(),
) -> TraceArtifacts:
    """Trace one experiment run; see the module docstring.

    ``experiment="chaos"`` traces the faulted landscape of a quick chaos
    run; ``"fleet"`` traces a small fig09-style live fleet (sized by
    *fleet_size*/*hours*/*warmup_hours*). ``host_time`` additionally
    stamps spans with ``perf_counter`` deltas for the profile table —
    host times never reach the JSONL/Chrome exports, which stay
    byte-identical either way. *workers* selects the experiment's
    parallel backend; every artifact is byte-identical across worker
    counts. *features* arms the opt-in tiers in the traced experiment;
    with the default none the trace bytes are identical to builds
    without them.
    """
    recorder = TraceRecorder(host_time=host_time)
    # Declare every feature's metric vocabulary up front: the families
    # show in the Prometheus rendering (`repro trace --metrics`) even
    # for runs that never arm them, and described-but-empty families add
    # no JSONL samples, so golden digests are untouched.
    describe_counter_families(recorder.metrics, FEATURE_METRIC_FAMILIES)
    session_stats: SessionStats | None = None
    if experiment == "chaos":
        report = chaos_recovery.run(
            seed=seed, quick=True, recorder=recorder, workers=workers,
            features=features,
        )
        recovery = (
            f"window {report.recovery_window:02d}"
            if report.recovery_window is not None
            else "none"
        )
        headline = (
            f"chaos quick: windows={report.windows} "
            f"delivered={sum(report.delivered.values())} "
            f"breaker_trips={report.breaker_trips} "
            f"fallbacks={report.fallbacks_served} recovery={recovery}"
        )
    elif experiment == "fleet":
        session_stats = SessionStats()
        result = fig09.run(
            fleet_size=fleet_size,
            hours=hours,
            warmup_hours=warmup_hours,
            seed=seed,
            recorder=recorder,
            workers=workers,
            stats=session_stats,
            features=features,
        )
        headline = (
            f"fleet: size={fleet_size} hours={hours:g} "
            f"tde_total={result.tde_total} "
            f"tde_mean_rpm={result.tde_mean_rpm():.3f}"
        )
    else:
        raise ValueError(
            f"unknown experiment {experiment!r}; pick from {EXPERIMENTS}"
        )

    meta = {"experiment": experiment, "seed": seed}
    artifacts = TraceArtifacts(
        experiment=experiment,
        seed=seed,
        headline=headline,
        jsonl=to_jsonl(recorder, meta),
        chrome_json=to_chrome_trace(recorder, meta),
        profile_table=render_profile(profile(recorder)),
        metrics_text=render_registry(recorder.metrics),
        recorder=recorder,
        pipe_table=(
            render_session_stats(session_stats) if session_stats else ""
        ),
    )
    return artifacts
