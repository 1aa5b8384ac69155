"""Chaos experiment: inject control-plane faults, measure recovery.

Two identical AutoDBaaS landscapes run the same seeded workloads window
by window. The *baseline* landscape's fault injector is disabled (every
shim is a transparent pass-through); the *faulted* landscape delivers a
:class:`~repro.faults.plan.FaultPlan` compiled from the same seed —
tuner outages, slow recommendations, transient apply failures, crashes
mid-apply, telemetry gaps and disk degradation — all confined to an
early fault phase so the tail of the run measures recovery.

The report answers the two robustness questions:

- **time to recovery** — how many simulated seconds after the last fault
  clears until fleet throughput is back to >= 90% of the fault-free run;
- **throughput retention** — the faulted fleet's total throughput as a
  fraction of the baseline's, overall and post-recovery.

Everything — workloads, tuner draws, fault schedule — derives from one
seed through :func:`~repro.common.rng.make_rng`, so the rendered report
is byte-identical across runs with the same arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.provisioner import Provisioner
from repro.common.recording import Recorder
from repro.core.apply.adapters import adapter_for
from repro.core.apply.dfa import DataFederationAgent
from repro.core.apply.reconciler import Reconciler
from repro.core.director.breaker import BreakerPolicy
from repro.core.features import Features
from repro.core.service import AutoDBaaS
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import offline_train
from repro.faults.injectors import (
    FaultInjector,
    FaultyAdapter,
    FaultyMonitoringAgent,
    FaultyTuner,
)
from repro.faults.plan import FaultKind, FaultPlan
from repro.obs.trace import TraceRecorder
from repro.parallel import FleetExecutor
from repro.tuners.ottertune import OtterTuneTuner
from repro.workloads.tpcc import TPCCWorkload

__all__ = ["STANDARD_KINDS", "WindowPoint", "ChaosReport", "run"]

#: Recovery bar: the faulted fleet must regain this fraction of the
#: fault-free fleet's window throughput.
RECOVERY_THRESHOLD = 0.9

#: Tuner deployments behind the balancer (two, so an outage has a
#: failover path before the breaker forces last-known-good fallback).
_TUNER_COUNT = 2

#: The original six-kind chaos taxonomy. The standard profile compiles
#: exactly these — pinned explicitly so that adding new fault kinds to
#: the enum (``bad_recommendation`` drives the adversarial profile, not
#: this one) never perturbs the standard plan's seeded draws.
STANDARD_KINDS: tuple[FaultKind, ...] = (
    FaultKind.TUNER_OUTAGE,
    FaultKind.SLOW_RECOMMENDATION,
    FaultKind.APPLY_FAILURE,
    FaultKind.APPLY_CRASH,
    FaultKind.TELEMETRY_GAP,
    FaultKind.DISK_DEGRADATION,
)


@dataclass(frozen=True)
class WindowPoint:
    """Fleet throughput in one monitoring window, both landscapes."""

    window: int
    start_s: float
    baseline_tps: float
    faulted_tps: float
    active_faults: tuple[str, ...] = ()

    @property
    def ratio(self) -> float:
        return self.faulted_tps / self.baseline_tps if self.baseline_tps > 0 else 1.0


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    seed: int
    fleet_size: int
    windows: int
    window_s: float
    plan: FaultPlan
    points: list[WindowPoint] = field(default_factory=list)
    delivered: dict[str, int] = field(default_factory=dict)
    breaker_trips: int = 0
    fallbacks_served: int = 0
    telemetry_gap_windows: int = 0
    degraded_tde_windows: int = 0
    recovery_window: int | None = None

    @property
    def last_fault_end_s(self) -> float:
        return self.plan.last_fault_end_s()

    @property
    def time_to_recovery_s(self) -> float | None:
        """Seconds from the last fault clearing to the recovery window."""
        if self.recovery_window is None:
            return None
        return max(0.0, self.recovery_window * self.window_s - self.last_fault_end_s)

    @property
    def retention(self) -> float:
        """Faulted / baseline total throughput over the whole run."""
        baseline = sum(p.baseline_tps for p in self.points)
        faulted = sum(p.faulted_tps for p in self.points)
        return faulted / baseline if baseline > 0 else 1.0

    @property
    def post_recovery_retention(self) -> float:
        """Faulted / baseline throughput from the recovery window on."""
        if self.recovery_window is None:
            return 0.0
        tail = self.points[self.recovery_window :]
        baseline = sum(p.baseline_tps for p in tail)
        faulted = sum(p.faulted_tps for p in tail)
        return faulted / baseline if baseline > 0 else 1.0

    def render(self) -> str:
        """Fixed-format text report (byte-identical for a given seed)."""
        lines = [
            "chaos recovery report "
            f"(seed={self.seed} fleet={self.fleet_size} "
            f"windows={self.windows} window_s={self.window_s:.0f})",
            "",
            "scheduled faults:",
        ]
        for event in self.plan.events:
            lines.append(
                f"  {event.start_s:7.0f}s +{event.duration_s:6.0f}s  "
                f"{event.kind.value:<20s} {event.target:<10s} "
                f"x{event.magnitude:.2f}"
            )
        lines += ["", "  w      start_s  baseline_tps   faulted_tps  ratio  faults"]
        for p in self.points:
            faults = ",".join(p.active_faults) if p.active_faults else "-"
            lines.append(
                f"  {p.window:02d}  {p.start_s:9.0f}  {p.baseline_tps:12.1f}  "
                f"{p.faulted_tps:12.1f}  {p.ratio:5.3f}  {faults}"
            )
        delivered = " ".join(
            f"{kind}={count}" for kind, count in sorted(self.delivered.items())
        )
        lines += [
            "",
            f"delivered: {delivered if delivered else '-'}",
            (
                f"control plane: breaker_trips={self.breaker_trips} "
                f"fallbacks_served={self.fallbacks_served} "
                f"telemetry_gap_windows={self.telemetry_gap_windows} "
                f"degraded_tde_windows={self.degraded_tde_windows}"
            ),
            f"last fault clears: {self.last_fault_end_s:.0f}s",
        ]
        if self.recovery_window is None:
            lines.append("recovery: NOT RECOVERED within the run")
        else:
            lines.append(
                f"recovery: window {self.recovery_window:02d} "
                f"(+{self.time_to_recovery_s:.0f}s after last fault)"
            )
        lines.append(
            f"throughput retention: overall={self.retention:.3f} "
            f"post_recovery={self.post_recovery_retention:.3f}"
        )
        recovered = (
            self.recovery_window is not None
            and self.post_recovery_retention >= RECOVERY_THRESHOLD
        )
        lines.append(
            f"verdict: {'PASS' if recovered else 'FAIL'} "
            f"(post-recovery retention threshold {RECOVERY_THRESHOLD:.2f})"
        )
        return "\n".join(lines) + "\n"


@dataclass
class _Landscape:
    """One wired landscape plus the handles the harness reads back."""

    service: AutoDBaaS
    injector: FaultInjector
    monitors: dict[str, FaultyMonitoringAgent]


def _build_landscape(
    seed: int,
    fleet_size: int,
    window_s: float,
    injector: FaultInjector,
    offline_configs: int,
    recorder: Recorder | None = None,
    features: Features = Features(),
) -> _Landscape:
    """Build one landscape; identical inputs give identical landscapes.

    Baseline and faulted runs call this with equal arguments except the
    injector's ``enabled`` flag, so they share every RNG draw and differ
    only where faults are actually delivered. A *recorder* (the trace
    harness) observes this landscape's control plane; with None every
    seam keeps the no-op default and behaviour is byte-identical.
    *features* arms the opt-in tiers: the governor on the facade (the
    adversarial profile runs the same landscape with and without one),
    the surrogate screen and knob selection on the tuners (offered
    through the :class:`FaultyTuner` shims).
    """
    if recorder is not None:
        injector.recorder = recorder
    catalog = postgres_catalog()
    repository = offline_train(
        catalog,
        [TPCCWorkload(rps=12_000.0, data_size_gb=30.0, seed=seed + 90)],
        n_configs=offline_configs,
        seed=seed + 91,
    )
    tuners = [
        FaultyTuner(
            OtterTuneTuner(
                catalog,
                repository,
                n_candidates=100,
                memory_limit_mb=None,  # repaired per-instance by the facade
                seed=seed + 40 + i,
            ),
            injector,
            f"tuner-{i:02d}",  # matches the facade's TunerInstance ids
            # Perturbation stream for delivered bad_recommendation events;
            # lazily derived, so plans without them draw nothing.
            seed=seed + 70 + i,
        )
        for i in range(_TUNER_COUNT)
    ]
    adapter = FaultyAdapter(adapter_for("postgres"), injector)
    monitors: dict[str, FaultyMonitoringAgent] = {}

    def monitoring_factory(instance_id: str) -> FaultyMonitoringAgent:
        agent = FaultyMonitoringAgent(instance_id, injector)
        monitors[instance_id] = agent
        return agent

    service = AutoDBaaS(
        tuners,
        repository,
        window_s=window_s,
        seed=seed,
        dfa=DataFederationAgent(adapter=adapter),
        monitoring_factory=monitoring_factory,
        recorder=recorder,
        governor=features.governor,
        surrogate=features.surrogate,
        selection=features.selection,
    )
    # Route the reconciler's restore path through the same (possibly
    # faulty) adapter, with a one-window watcher timeout so drift left by
    # crashes mid-apply is healed while the run can still observe it.
    service.reconciler = Reconciler(
        service.orchestrator,
        watcher_timeout_s=window_s,
        adapter=adapter,
        recorder=recorder,
        incident_log=service.governor,
    )
    # Trip fast and recover fast relative to the short horizon: two
    # consecutive routing failures open a tuner's breaker for two windows.
    service.director.breaker_policy = BreakerPolicy(
        failure_threshold=2, cooldown_s=2.0 * window_s
    )

    provisioner = Provisioner(seed=seed + 5)
    for i in range(fleet_size):
        deployment = provisioner.provision(
            plan="m4.xlarge", flavor="postgres", data_size_gb=30.0 + 2.0 * i
        )
        # Constant-rate TPC-C hot enough to keep the instance mildly
        # capacity-bound even when tuned: faults then show up as lost
        # throughput instead of disappearing into idle headroom.
        workload = TPCCWorkload(
            rps=6000.0,
            data_size_gb=deployment.service.master.data_size_gb,
            seed=seed + 10 + i,
        )
        service.attach(deployment, workload, policy="tde")
        adapter.register_service(
            deployment.instance_id, deployment.service.nodes
        )
    return _Landscape(service=service, injector=injector, monitors=monitors)


def _run_landscape(
    landscape: _Landscape, windows: int, window_s: float
) -> tuple[list[float], int]:
    """Advance a landscape; return per-window fleet tps + degraded count."""
    service = landscape.service
    injector = landscape.injector
    fleet_tps: list[float] = []
    degraded = 0
    for _ in range(windows):
        injector.advance(service.clock_s)
        for instance_id, managed in service.instances.items():
            event = injector.hit(FaultKind.DISK_DEGRADATION, instance_id)
            factor = event.magnitude if event is not None else 1.0
            for node in managed.deployment.service.nodes:
                node.set_disk_degradation(factor)
        outcomes = service.step()
        fleet_tps.append(sum(o.result.throughput for o in outcomes))
        degraded += sum(
            1
            for o in outcomes
            if o.tde_report is not None and o.tde_report.degraded
        )
    return fleet_tps, degraded


@dataclass(frozen=True)
class _LandscapeTask:
    """One landscape's build-and-run, picklable for :meth:`FleetExecutor.map`."""

    seed: int
    fleet_size: int
    windows: int
    window_s: float
    offline_configs: int
    plan: FaultPlan
    enabled: bool
    traced: bool = False
    host_time: bool = False
    #: Opt-in tiers (the adversarial profile's governed arm sets one).
    features: Features = Features()


@dataclass
class _LandscapeOutcome:
    """What one landscape run hands back to the coordinator."""

    fleet_tps: list[float]
    degraded: int
    delivered: dict[str, int]
    breaker_trips: int
    fallbacks_served: int
    telemetry_gap_windows: int
    recorder: TraceRecorder | None = None
    #: Safety-governor counters (zero when no governor was armed).
    safety_clamps: int = 0
    canary_rejections: int = 0
    reverts: int = 0


def _run_landscape_task(task: _LandscapeTask) -> _LandscapeOutcome:
    """Build and run one landscape end to end (worker entry point)."""
    rec = TraceRecorder(host_time=task.host_time) if task.traced else None
    landscape = _build_landscape(
        task.seed,
        task.fleet_size,
        task.window_s,
        FaultInjector(task.plan, enabled=task.enabled),
        task.offline_configs,
        recorder=rec,
        features=task.features,
    )
    fleet_tps, degraded = _run_landscape(landscape, task.windows, task.window_s)
    governor = landscape.service.governor
    return _LandscapeOutcome(
        fleet_tps=fleet_tps,
        degraded=degraded,
        delivered={
            kind.value: landscape.injector.delivered(kind)
            for kind in FaultKind
            if landscape.injector.delivered(kind)
        },
        breaker_trips=landscape.service.director.breaker_trips(),
        fallbacks_served=landscape.service.director.fallbacks_served,
        telemetry_gap_windows=sum(
            m.gap_windows for m in landscape.monitors.values()
        ),
        recorder=rec,
        safety_clamps=governor.clamps if governor is not None else 0,
        canary_rejections=(
            governor.canary_rejections if governor is not None else 0
        ),
        reverts=governor.reverts if governor is not None else 0,
    )


def run(
    fleet_size: int = 3,
    windows: int = 28,
    window_s: float = 300.0,
    seed: int = 0,
    quick: bool = False,
    recorder: Recorder | None = None,
    workers: int = 1,
    start_method: str | None = None,
    features: Features = Features(),
) -> ChaosReport:
    """Run the chaos experiment; see the module docstring.

    ``quick`` shrinks the fleet and the horizon for CI (the schedule
    still covers every fault kind and leaves a fault-free tail).
    *recorder* observes the **faulted** landscape only (the baseline
    landscape is the control — tracing it would double every span).
    The two landscapes are fully independent, so ``workers >= 2`` runs
    them concurrently; the faulted landscape records into a fragment
    recorder that is absorbed into *recorder* afterwards, which yields
    the same trace bytes as recording inline. *features* arms the
    opt-in tiers on **both** landscapes (keeping the baseline a fair
    control); default none, byte-identical output.
    """
    if quick:
        fleet_size = min(fleet_size, 2)
        windows = min(windows, 18)
    offline_configs = 6 if quick else 10
    service_ids = [f"svc-{i:04d}" for i in range(fleet_size)]
    tuner_ids = [f"tuner-{i:02d}" for i in range(_TUNER_COUNT)]
    # Fault phase confined to the first ~60% of the run; the tail is
    # fault-free and measures recovery.
    end_window = max(6, (windows * 3) // 5)
    plan = FaultPlan.compile(
        seed + 50,
        tuner_ids=tuner_ids,
        service_ids=service_ids,
        window_s=window_s,
        start_window=4,
        end_window=end_window,
        kinds=STANDARD_KINDS,
    )

    traced = isinstance(recorder, TraceRecorder)
    executor = FleetExecutor(workers=workers, start_method=start_method)
    base_out, fault_out = executor.map(
        _run_landscape_task,
        [
            _LandscapeTask(
                seed, fleet_size, windows, window_s, offline_configs, plan,
                enabled=False,
                features=features,
            ),
            _LandscapeTask(
                seed, fleet_size, windows, window_s, offline_configs, plan,
                enabled=True,
                traced=traced,
                host_time=traced and recorder.host_time,  # type: ignore[union-attr]
                features=features,
            ),
        ],
    )
    if traced and fault_out.recorder is not None:
        assert isinstance(recorder, TraceRecorder)
        recorder.absorb(fault_out.recorder)
    baseline_tps = base_out.fleet_tps
    faulted_tps, degraded = fault_out.fleet_tps, fault_out.degraded

    points = []
    for w, (b_tps, f_tps) in enumerate(zip(baseline_tps, faulted_tps)):
        start = w * window_s
        active = sorted(
            {
                e.kind.value
                for e in plan.events
                if e.start_s <= start < e.end_s
            }
        )
        points.append(
            WindowPoint(w, start, b_tps, f_tps, tuple(active))
        )

    last_end = plan.last_fault_end_s()
    recovery_window = None
    for point in points:
        if point.start_s < last_end:
            continue
        if point.faulted_tps >= RECOVERY_THRESHOLD * point.baseline_tps:
            recovery_window = point.window
            break

    report = ChaosReport(
        seed=seed,
        fleet_size=fleet_size,
        windows=windows,
        window_s=window_s,
        plan=plan,
        points=points,
        delivered=fault_out.delivered,
        breaker_trips=fault_out.breaker_trips,
        fallbacks_served=fault_out.fallbacks_served,
        telemetry_gap_windows=fault_out.telemetry_gap_windows,
        degraded_tde_windows=degraded,
        recovery_window=recovery_window,
    )
    return report
