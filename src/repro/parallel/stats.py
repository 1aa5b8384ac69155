"""Per-step timing and byte accounting at the executor pipe seam.

The fleet executor is the one place where every window's data crosses a
process boundary, so it is the right seam to measure two things the
benches and ``repro trace fleet --profile`` report: how window wall time
splits between member stepping, serialization and reduction, and how
many bytes each window actually ships. :class:`SessionStats` collects
one :class:`StepStats` row per ``FleetSession.step`` under both
backends; it observes the session and never feeds back into results, so
collecting it cannot perturb parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SessionStats", "StepStats", "render_session_stats"]


@dataclass(frozen=True)
class StepStats:
    """One session step, timed and weighed at the pipe seam."""

    #: Serialized broadcast command size (what one shard receives).
    command_bytes: int
    #: Coordinator time pickling the broadcast command.
    serialize_s: float
    #: Coordinator time writing the command to every pipe.
    send_s: float
    #: Member stepping self-time: the slowest shard's own ``step`` clock
    #: under the process backend, the summed in-process time under
    #: sequential.
    step_s: float
    #: Coordinator time waiting on and reading worker replies.
    recv_s: float
    #: Coordinator time re-merging outputs into canonical member order.
    merge_s: float


@dataclass
class SessionStats:
    """All steps of one fleet session, plus session-level context."""

    backend: str = ""
    shards: int = 0
    #: Size of the pickled shared-state snapshot each worker received at
    #: session setup (the window-0 broadcast cost). Filled by the
    #: experiment driver, which owns the snapshot.
    snapshot_bytes: int = 0
    #: Size the snapshot had grown to by the end of the run — what the
    #: old protocol would have re-pickled at the last window, and hence
    #: the honest counterfactual for the delta-only saving. Also filled
    #: by the experiment driver; 0 when not measured.
    final_snapshot_bytes: int = 0
    steps: list[StepStats] = field(default_factory=list)

    def record(self, step: StepStats) -> None:
        self.steps.append(step)

    def steady_steps(self) -> list[StepStats]:
        """Steps after window 0 — the delta-only regime."""
        return self.steps[1:]

    def mean_command_bytes(self, steady: bool = True) -> float:
        steps = self.steady_steps() if steady else self.steps
        if not steps:
            return 0.0
        return sum(s.command_bytes for s in steps) / len(steps)

    def total(self, field_name: str) -> float:
        return float(sum(getattr(s, field_name) for s in self.steps))


def render_session_stats(stats: SessionStats) -> str:
    """Deterministic-shape text table for ``--profile`` output.

    Host times vary run to run (like the span profile's host columns);
    byte counts are deterministic for identical arguments.
    """
    steady = stats.steady_steps()
    lines = [
        "pipe seam (fleet executor):",
        f"  backend={stats.backend} shards={stats.shards} "
        f"windows={len(stats.steps)}",
        f"  setup snapshot: {stats.snapshot_bytes} bytes/worker",
    ]
    if stats.steps:
        first = stats.steps[0]
        lines.append(f"  window 0 command: {first.command_bytes} bytes")
    if steady:
        mean_bytes = stats.mean_command_bytes()
        peak = max(s.command_bytes for s in steady)
        lines.append(
            f"  steady-state command: mean {mean_bytes:.0f} bytes/window, "
            f"peak {peak} bytes"
        )
        counterfactual = stats.final_snapshot_bytes or stats.snapshot_bytes
        if counterfactual and mean_bytes:
            lines.append(
                "  vs full-snapshot rebroadcast: "
                f"{counterfactual / mean_bytes:.1f}x smaller"
            )
    for name, label in (
        ("step_s", "member step"),
        ("serialize_s", "serialize"),
        ("send_s", "send"),
        ("recv_s", "recv wait"),
        ("merge_s", "reduce"),
    ):
        lines.append(f"  {label:<12} {stats.total(name):8.3f} s")
    return "\n".join(lines) + "\n"
