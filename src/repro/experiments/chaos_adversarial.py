"""Adversarial-tuner chaos: the safety governor versus a rogue tuner.

Three identical AutoDBaaS landscapes run the same seeded workloads
window by window:

- **baseline** — fault injector disabled (the fault-free control);
- **ungoverned** — every tuner recommendation is adversarially
  perturbed (:attr:`~repro.faults.plan.FaultKind.BAD_RECOMMENDATION`
  active from an early window to the *end* of the run) and applied
  through the ordinary §4 pipeline;
- **governed** — same adversarial schedule, but the
  :class:`~repro.core.director.safety.SafetyGovernor` is armed:
  recommendations are bounded to the step budget, canaried on a slave,
  and auto-reverted on observed regression.

The report asserts the safety claim from both sides: with the governor
on, fleet throughput regression stays *bounded by the revert window*
(no regression streak outlives the watch) and overall retention stays
high; with it off, the same seed shows an *unbounded* regression — the
fleet is still regressed when the run ends. Everything derives from one
seed, so the rendered report is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.director.safety import GovernorPolicy
from repro.core.features import Features
from repro.experiments.chaos_recovery import _LandscapeTask, _run_landscape_task
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.parallel import FleetExecutor

__all__ = [
    "GOVERNED_RETENTION_THRESHOLD",
    "REGRESSION_BAR",
    "AdversarialPoint",
    "AdversarialReport",
    "run",
]

#: The governed fleet must keep at least this fraction of the fault-free
#: fleet's total throughput despite the adversarial tuner.
GOVERNED_RETENTION_THRESHOLD = 0.9

#: A window counts as regressed when its throughput falls below this
#: fraction of the baseline window's.
REGRESSION_BAR = 0.9

#: Windows of the run tail used for the "still regressed at the end"
#: (unbounded-regression) assertion against the ungoverned arm.
_TAIL_WINDOWS = 5

#: First window of the adversarial phase: late enough that offline-trained
#: tuning has produced an incumbent worth defending.
_START_WINDOW = 3


@dataclass(frozen=True)
class AdversarialPoint:
    """Fleet throughput in one monitoring window, all three arms."""

    window: int
    start_s: float
    baseline_tps: float
    ungoverned_tps: float
    governed_tps: float

    @property
    def ungoverned_ratio(self) -> float:
        if self.baseline_tps <= 0:
            return 1.0
        return self.ungoverned_tps / self.baseline_tps

    @property
    def governed_ratio(self) -> float:
        if self.baseline_tps <= 0:
            return 1.0
        return self.governed_tps / self.baseline_tps


def _longest_regression_streak(ratios: list[float]) -> int:
    """Longest run of consecutive windows below :data:`REGRESSION_BAR`."""
    longest = current = 0
    for ratio in ratios:
        current = current + 1 if ratio < REGRESSION_BAR else 0
        longest = max(longest, current)
    return longest


@dataclass
class AdversarialReport:
    """Everything one adversarial chaos run produced."""

    seed: int
    fleet_size: int
    windows: int
    window_s: float
    plan: FaultPlan
    policy: GovernorPolicy
    points: list[AdversarialPoint] = field(default_factory=list)
    delivered: dict[str, int] = field(default_factory=dict)
    safety_clamps: int = 0
    canary_rejections: int = 0
    reverts: int = 0
    governed_breaker_trips: int = 0
    governed_fallbacks: int = 0
    ungoverned_breaker_trips: int = 0
    ungoverned_fallbacks: int = 0

    # -- derived measurements --------------------------------------------------

    @property
    def governed_retention(self) -> float:
        baseline = sum(p.baseline_tps for p in self.points)
        governed = sum(p.governed_tps for p in self.points)
        return governed / baseline if baseline > 0 else 1.0

    @property
    def ungoverned_retention(self) -> float:
        baseline = sum(p.baseline_tps for p in self.points)
        ungoverned = sum(p.ungoverned_tps for p in self.points)
        return ungoverned / baseline if baseline > 0 else 1.0

    @property
    def governed_regression_streak(self) -> int:
        return _longest_regression_streak(
            [p.governed_ratio for p in self.points]
        )

    @property
    def ungoverned_regression_streak(self) -> int:
        return _longest_regression_streak(
            [p.ungoverned_ratio for p in self.points]
        )

    @property
    def regression_bound(self) -> int:
        """Longest regression streak the revert window permits.

        A bad promotion can regress at most ``watch_windows`` watched
        windows before the revert triggers, plus the window in which the
        restored config warms back up.
        """
        return self.policy.watch_windows + 1

    @property
    def ungoverned_tail_ratio(self) -> float:
        tail = self.points[-_TAIL_WINDOWS:]
        baseline = sum(p.baseline_tps for p in tail)
        ungoverned = sum(p.ungoverned_tps for p in tail)
        return ungoverned / baseline if baseline > 0 else 1.0

    # -- the two-sided verdict -------------------------------------------------

    @property
    def governed_bounded(self) -> bool:
        """Governor on: regression bounded by the revert window."""
        return (
            self.governed_regression_streak <= self.regression_bound
            and self.governed_retention >= GOVERNED_RETENTION_THRESHOLD
        )

    @property
    def ungoverned_unbounded(self) -> bool:
        """Governor off, same seed: the regression never clears."""
        return (
            self.ungoverned_regression_streak > self.regression_bound
            and self.ungoverned_tail_ratio < REGRESSION_BAR
            and self.ungoverned_retention < self.governed_retention
        )

    @property
    def passed(self) -> bool:
        return self.governed_bounded and self.ungoverned_unbounded

    def render(self) -> str:
        """Fixed-format text report (byte-identical for a given seed)."""
        lines = [
            "adversarial chaos report "
            f"(seed={self.seed} fleet={self.fleet_size} "
            f"windows={self.windows} window_s={self.window_s:.0f})",
            "",
            f"governor policy: step_budget={self.policy.step_budget:.2f} "
            f"canary_threshold={self.policy.canary_threshold:.2f} "
            f"revert_threshold={self.policy.revert_threshold:.2f} "
            f"watch_windows={self.policy.watch_windows}",
            "",
            "scheduled faults:",
        ]
        for event in self.plan.events:
            lines.append(
                f"  {event.start_s:7.0f}s +{event.duration_s:6.0f}s  "
                f"{event.kind.value:<20s} {event.target:<10s} "
                f"x{event.magnitude:.2f}"
            )
        lines += [
            "",
            "  w      start_s  baseline_tps  ungoverned_tps  governed_tps  "
            "u_ratio  g_ratio",
        ]
        for p in self.points:
            lines.append(
                f"  {p.window:02d}  {p.start_s:9.0f}  {p.baseline_tps:12.1f}  "
                f"{p.ungoverned_tps:14.1f}  {p.governed_tps:12.1f}  "
                f"{p.ungoverned_ratio:7.3f}  {p.governed_ratio:7.3f}"
            )
        delivered = " ".join(
            f"{kind}={count}" for kind, count in sorted(self.delivered.items())
        )
        lines += [
            "",
            f"delivered: {delivered if delivered else '-'}",
            (
                f"safety: violations_clamped={self.safety_clamps} "
                f"canary_rejections={self.canary_rejections} "
                f"reverts={self.reverts}"
            ),
            (
                f"control plane (governed): "
                f"breaker_trips={self.governed_breaker_trips} "
                f"fallbacks_served={self.governed_fallbacks}"
            ),
            (
                f"control plane (ungoverned): "
                f"breaker_trips={self.ungoverned_breaker_trips} "
                f"fallbacks_served={self.ungoverned_fallbacks}"
            ),
            (
                f"retention: governed={self.governed_retention:.3f} "
                f"ungoverned={self.ungoverned_retention:.3f}"
            ),
            (
                f"regression streaks (bar {REGRESSION_BAR:.2f}): "
                f"governed={self.governed_regression_streak} "
                f"ungoverned={self.ungoverned_regression_streak} "
                f"bound={self.regression_bound}"
            ),
            f"ungoverned tail ratio (last {_TAIL_WINDOWS}w): "
            f"{self.ungoverned_tail_ratio:.3f}",
            (
                "assert governed-bounded: "
                f"{'ok' if self.governed_bounded else 'FAILED'} "
                f"(streak <= {self.regression_bound} and retention >= "
                f"{GOVERNED_RETENTION_THRESHOLD:.2f})"
            ),
            (
                "assert ungoverned-unbounded: "
                f"{'ok' if self.ungoverned_unbounded else 'FAILED'} "
                f"(streak > {self.regression_bound} and tail < "
                f"{REGRESSION_BAR:.2f})"
            ),
            f"verdict: {'PASS' if self.passed else 'FAIL'} "
            "(adversarial regression bounded by the revert window)",
        ]
        return "\n".join(lines) + "\n"


def _adversarial_plan(windows: int, window_s: float) -> FaultPlan:
    """Every tuner adversarial from the early phase to the end of the run.

    Unlike the standard profile there is deliberately no fault-free
    tail: the unbounded-regression assertion needs the attack to
    persist, so recovery can only come from the governor, never from
    the attacker giving up.
    """
    start_s = _START_WINDOW * window_s
    duration_s = max(window_s, windows * window_s - start_s)
    return FaultPlan(
        (
            FaultEvent(
                FaultKind.BAD_RECOMMENDATION, "*", start_s, duration_s, 1.0
            ),
        )
    )


def run(
    fleet_size: int = 3,
    windows: int = 28,
    window_s: float = 300.0,
    seed: int = 0,
    quick: bool = False,
    workers: int = 1,
    start_method: str | None = None,
    policy: GovernorPolicy | None = None,
) -> AdversarialReport:
    """Run the adversarial chaos experiment; see the module docstring.

    ``quick`` shrinks the fleet and the horizon for CI. The three
    landscapes are fully independent, so ``workers >= 2`` runs them
    concurrently with byte-identical results (order-stable reduction).
    """
    if quick:
        fleet_size = min(fleet_size, 2)
        windows = min(windows, 18)
    offline_configs = 6 if quick else 10
    policy = policy if policy is not None else GovernorPolicy()
    plan = _adversarial_plan(windows, window_s)

    executor = FleetExecutor(workers=workers, start_method=start_method)
    base_out, ungoverned_out, governed_out = executor.map(
        _run_landscape_task,
        [
            _LandscapeTask(
                seed, fleet_size, windows, window_s, offline_configs, plan,
                enabled=False,
            ),
            _LandscapeTask(
                seed, fleet_size, windows, window_s, offline_configs, plan,
                enabled=True,
            ),
            _LandscapeTask(
                seed, fleet_size, windows, window_s, offline_configs, plan,
                enabled=True,
                features=Features(governor=policy),
            ),
        ],
    )

    points = [
        AdversarialPoint(
            window=w,
            start_s=w * window_s,
            baseline_tps=b_tps,
            ungoverned_tps=u_tps,
            governed_tps=g_tps,
        )
        for w, (b_tps, u_tps, g_tps) in enumerate(
            zip(
                base_out.fleet_tps,
                ungoverned_out.fleet_tps,
                governed_out.fleet_tps,
            )
        )
    ]
    delivered = dict(governed_out.delivered)
    for kind, count in ungoverned_out.delivered.items():
        delivered[f"ungoverned_{kind}"] = count
    return AdversarialReport(
        seed=seed,
        fleet_size=fleet_size,
        windows=windows,
        window_s=window_s,
        plan=plan,
        policy=policy,
        points=points,
        delivered=delivered,
        safety_clamps=governed_out.safety_clamps,
        canary_rejections=governed_out.canary_rejections,
        reverts=governed_out.reverts,
        governed_breaker_trips=governed_out.breaker_trips,
        governed_fallbacks=governed_out.fallbacks_served,
        ungoverned_breaker_trips=ungoverned_out.breaker_trips,
        ungoverned_fallbacks=ungoverned_out.fallbacks_served,
    )
