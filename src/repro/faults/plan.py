"""Fault plans: seeded, scripted schedules of control-plane faults.

A :class:`FaultPlan` is an immutable list of :class:`FaultEvent` windows
in *simulated* time. Plans are either hand-scripted (unit tests) or
compiled from a seed with :meth:`FaultPlan.compile`, which draws every
start time, duration, target and magnitude from one
:func:`~repro.common.rng.make_rng` stream — the same seed always yields
the same schedule, which is what makes chaos reports byte-identical
across runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.rng import make_rng

__all__ = ["FaultKind", "FaultEvent", "FaultPlan"]


class FaultKind(enum.Enum):
    """The injectable fault taxonomy."""

    #: A tuner instance is down: ``recommend`` raises ``TunerUnavailable``.
    TUNER_OUTAGE = "tuner_outage"
    #: A tuner instance answers, but its recommendation cost is inflated
    #: by ``magnitude`` (a GPR retrain on an overloaded deployment).
    SLOW_RECOMMENDATION = "slow_recommendation"
    #: The adapter's apply call fails transiently (connection refused);
    #: the node is untouched and a retry may succeed.
    APPLY_FAILURE = "apply_failure"
    #: The adapter crashes the node mid-apply: the new config lands but
    #: the process dies, leaving drift for the reconciler.
    APPLY_CRASH = "apply_crash"
    #: The monitoring pipeline loses the window's disk telemetry.
    TELEMETRY_GAP = "telemetry_gap"
    #: The service VM's disks degrade: latency multiplied by ``magnitude``.
    DISK_DEGRADATION = "disk_degradation"
    #: A tuner answers, but adversarially: its recommendation's tunable
    #: knobs are pushed toward pathological extremes (working memory
    #: starved, the rest seeded-random), ``magnitude`` (0..1) scaling how
    #: far. The worst case safe online tuning must survive.
    BAD_RECOMMENDATION = "bad_recommendation"


#: Compile-time draw ranges per kind: (min duration, max duration,
#: min magnitude, max magnitude), durations as a fraction of the window.
_KIND_PROFILES: dict[FaultKind, tuple[float, float, float, float]] = {
    FaultKind.TUNER_OUTAGE: (2.0, 5.0, 1.0, 1.0),
    FaultKind.SLOW_RECOMMENDATION: (2.0, 6.0, 3.0, 10.0),
    FaultKind.APPLY_FAILURE: (1.0, 3.0, 1.0, 1.0),
    FaultKind.APPLY_CRASH: (1.0, 1.0, 1.0, 1.0),
    FaultKind.TELEMETRY_GAP: (2.0, 5.0, 1.0, 1.0),
    FaultKind.DISK_DEGRADATION: (2.0, 4.0, 2.0, 6.0),
    FaultKind.BAD_RECOMMENDATION: (3.0, 8.0, 0.7, 1.0),
}


@dataclass(frozen=True)
class FaultEvent:
    """One fault window against one target.

    ``target`` names a tuner instance (tuner faults), a service instance
    (apply/telemetry/disk faults), or ``"*"`` for every target of the
    kind. The event is active for ``start_s <= now < start_s + duration_s``.
    """

    kind: FaultKind
    target: str
    start_s: float
    duration_s: float
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active(self, target: str, now_s: float) -> bool:
        """Whether this event hits *target* at *now_s*."""
        if self.target not in ("*", target):
            return False
        return self.start_s <= now_s < self.end_s


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted schedule of fault events."""

    events: tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.events,
                key=lambda e: (e.start_s, e.kind.value, e.target),
            )
        )
        object.__setattr__(self, "events", ordered)

    def active(
        self, kind: FaultKind, target: str, now_s: float
    ) -> FaultEvent | None:
        """The first active event of *kind* against *target*, if any."""
        for event in self.events:
            if event.kind is kind and event.active(target, now_s):
                return event
        return None

    def last_fault_end_s(self) -> float:
        """When the final scheduled fault clears (0.0 for an empty plan)."""
        return max((e.end_s for e in self.events), default=0.0)

    @staticmethod
    def compile(
        seed: int | np.random.Generator,
        tuner_ids: Sequence[str],
        service_ids: Sequence[str],
        window_s: float = 300.0,
        start_window: int = 4,
        end_window: int = 16,
        events_per_kind: int = 1,
        kinds: Sequence[FaultKind] | None = None,
    ) -> "FaultPlan":
        """Compile a randomized-but-deterministic schedule from *seed*.

        Every kind in *kinds* (default: all six) gets *events_per_kind*
        events, each targeting one deterministic draw from the matching
        id pool, starting inside ``[start_window, end_window)`` windows
        and lasting/degrading per the kind's profile. Events land only
        inside the configured window span, so callers can leave the tail
        of a run fault-free to measure recovery.
        """
        if end_window <= start_window:
            raise ValueError("end_window must exceed start_window")
        rng = make_rng(seed)
        chosen = tuple(kinds) if kinds is not None else tuple(FaultKind)
        events: list[FaultEvent] = []
        for kind in chosen:
            tuner_kinds = (
                FaultKind.TUNER_OUTAGE,
                FaultKind.SLOW_RECOMMENDATION,
                FaultKind.BAD_RECOMMENDATION,
            )
            pool = (
                tuple(tuner_ids)
                if kind in tuner_kinds
                else tuple(service_ids)
            )
            if not pool:
                continue
            lo_d, hi_d, lo_m, hi_m = _KIND_PROFILES[kind]
            for _ in range(events_per_kind):
                target = pool[int(rng.integers(0, len(pool)))]
                start = float(rng.integers(start_window, end_window)) * window_s
                duration = float(rng.uniform(lo_d, hi_d)) * window_s
                # Clip so the schedule never outlives the fault phase.
                duration = min(duration, end_window * window_s - start)
                duration = max(duration, window_s)
                magnitude = float(rng.uniform(lo_m, hi_m))
                events.append(
                    FaultEvent(kind, target, start, duration, magnitude)
                )
        return FaultPlan(tuple(events))
