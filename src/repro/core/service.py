"""AutoDBaaS: the tuning service facade (Fig. 1 wired end-to-end).

One :class:`AutoDBaaS` owns the shared workload repository, the tuner
instances behind a least-loaded balancer, the config director, the Data
Federation Agent, the Service Orchestrator, the reconciler and the
non-tunable-knob downtime policy. Database deployments are attached with
a workload and a tuning policy:

- ``"tde"`` — the paper's event-driven mode: a per-instance TDE inspects
  every monitoring window; only windows that raise throttles trigger
  tuning requests and only those windows' samples (high-quality) are
  uploaded to the repository;
- ``"periodic"`` — the baseline: a tuning request every
  ``periodic_interval_s`` regardless of need, every window's sample
  uploaded (including corrupting low-quality ones);
- ``"monitor"`` — run and observe only (no tuning), for measuring raw
  throttle behaviour (Figs. 10–11).

:meth:`step` advances the whole landscape one monitoring window: one
engine call steps every master, then each instance is served in order.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.cloud.monitoring import MonitoringAgent
from repro.cloud.provisioner import ServiceDeployment
from repro.common.recording import NULL_RECORDER, Recorder
from repro.core.apply.dfa import ApplyReport, CanaryContext, DataFederationAgent
from repro.core.apply.nontunable import NonTunableKnobPolicy
from repro.core.apply.orchestrator import ServiceOrchestrator
from repro.core.apply.reconciler import Reconciler
from repro.core.director.config_director import ConfigDirector, SplitRecommendation
from repro.core.director.load_balancer import LeastLoadedBalancer, TunerInstance
from repro.core.director.safety import GovernorPolicy, SafetyGovernor
from repro.core.features import Features
from repro.core.tde.engine import TDEReport, ThrottlingDetectionEngine
from repro.dbsim.engine import ExecutionResult, step_members
from repro.dbsim.memory import HOT_FRACTION
from repro.tuners.base import TrainingSample, Tuner, TuningRequest
from repro.tuners.knob_selection import SelectionPolicy
from repro.tuners.repository import WorkloadRepository
from repro.tuners.surrogate import SurrogatePolicy
from repro.workloads.generator import WorkloadGenerator

__all__ = ["ManagedInstance", "StepOutcome", "AutoDBaaS"]

_POLICIES = ("tde", "periodic", "monitor")


@dataclass
class ManagedInstance:
    """One database under AutoDBaaS management."""

    deployment: ServiceDeployment
    workload: WorkloadGenerator
    tde: ThrottlingDetectionEngine
    monitoring: MonitoringAgent
    policy: str
    periodic_interval_s: float
    apply_mode: str = "split"
    since_last_periodic_s: float = 0.0
    throughput_history: list[float] = field(default_factory=list)

    @property
    def instance_id(self) -> str:
        return self.deployment.instance_id


@dataclass(slots=True)
class StepOutcome:
    """What happened to one instance during one window."""

    instance_id: str
    result: ExecutionResult
    tde_report: TDEReport | None = None
    tuning_requested: bool = False
    split: SplitRecommendation | None = None
    apply_report: ApplyReport | None = None
    downtime_taken: bool = False


class AutoDBaaS:
    """The full tuning-service landscape."""

    def __init__(
        self,
        tuners: list[Tuner],
        repository: WorkloadRepository | None = None,
        window_s: float = 300.0,
        downtime_period_s: float = 86_400.0,
        seed: int = 0,
        dfa: DataFederationAgent | None = None,
        monitoring_factory: Callable[[str], MonitoringAgent] | None = None,
        recorder: Recorder | None = None,
        governor: GovernorPolicy | None = None,
        surrogate: SurrogatePolicy | None = None,
        selection: SelectionPolicy | None = None,
    ) -> None:
        # Every opt-in tier is off by default; with none armed every
        # output is byte-identical to the build without them.
        self.features = Features(governor, surrogate, selection)
        if not tuners:
            raise ValueError("need at least one tuner instance")
        self.repository = repository if repository is not None else WorkloadRepository()
        self.window_s = window_s
        self.seed = seed
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.balancer = LeastLoadedBalancer(
            [
                TunerInstance(f"tuner-{i:02d}", tuner)
                for i, tuner in enumerate(tuners)
            ]
        )
        for tuner in tuners:
            tuner.bind_recorder(self.recorder)
        self.director = ConfigDirector(
            self.balancer, recorder=self.recorder, features=self.features
        )
        self.orchestrator = ServiceOrchestrator(
            downtime_period_s, recorder=self.recorder
        )
        self.governor = (
            SafetyGovernor(
                self.director.configs,
                policy=self.features.governor,
                recorder=self.recorder,
            )
            if self.features.governor is not None
            else None
        )
        self.reconciler = Reconciler(
            self.orchestrator,
            recorder=self.recorder,
            incident_log=self.governor,
        )
        # Injection seams for the fault layer (repro.faults): a custom DFA
        # carries a faulty adapter, a custom monitoring factory produces
        # gap-dropping agents. Defaults reproduce the fault-free service.
        self.dfa = (
            dfa if dfa is not None else DataFederationAgent(recorder=self.recorder)
        )
        if self.dfa.recorder is NULL_RECORDER:
            # An injected DFA (fault layer) still reports to the landscape.
            self.dfa.recorder = self.recorder
        self._monitoring_factory = (
            monitoring_factory if monitoring_factory is not None else MonitoringAgent
        )
        self.downtime_policy = NonTunableKnobPolicy(self.director.configs)
        self.instances: dict[str, ManagedInstance] = {}
        self.clock_s = 0.0

    # -- attachment ---------------------------------------------------------------

    def attach(
        self,
        deployment: ServiceDeployment,
        workload: WorkloadGenerator,
        policy: str = "tde",
        periodic_interval_s: float = 300.0,
        apply_mode: str = "split",
    ) -> ManagedInstance:
        """Put *deployment* under management with *policy*.

        ``apply_mode="split"`` is AutoDBaaS's §4 pipeline: reloadable
        knobs now, restart-required knobs at scheduled downtime.
        ``apply_mode="restart"`` models a *native* tuner deployment
        (OtterTune/CDBTune apply every recommendation with a database
        restart, as their own methodologies do) — the baseline the paper
        compares against.
        """
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r}; pick from {_POLICIES}")
        if apply_mode not in ("split", "restart"):
            raise ValueError(f"unknown apply_mode {apply_mode!r}")
        instance_id = deployment.instance_id
        tde = ThrottlingDetectionEngine(
            instance_id,
            deployment.service.master,
            self.repository,
            seed=self.seed + len(self.instances),
            recorder=self.recorder,
        )
        managed = ManagedInstance(
            deployment=deployment,
            workload=workload,
            tde=tde,
            monitoring=self._monitoring_factory(instance_id),
            policy=policy,
            periodic_interval_s=periodic_interval_s,
            apply_mode=apply_mode,
        )
        self.instances[instance_id] = managed
        self.orchestrator.register(deployment)
        return managed

    # -- the main loop ----------------------------------------------------------------

    def step(self, window_s: float | None = None) -> list[StepOutcome]:
        """Advance every managed instance one monitoring window.

        Phase 1 heals crashed masters, draws every batch and steps all
        masters in one :func:`step_members` call. Phase 2 serves each
        instance in attach order. Masters and workloads own their RNG
        streams and phase 2 touches only its own instance, so this gives
        the bits of stepping the instances one by one.
        """
        window = window_s if window_s is not None else self.window_s
        self.recorder.advance(self.clock_s)
        with self.recorder.span(
            "landscape.window", duration_s=window, fleet=len(self.instances)
        ):
            managed_all = list(self.instances.values())
            masters, batches = [], []
            for managed in managed_all:
                master = managed.deployment.service.master
                if master.crashed:
                    master.heal()
                masters.append(master)
                batches.append(
                    managed.workload.batch(window, start_time_s=self.clock_s)
                )
            results = step_members(masters, batches)
            outcomes = [
                self._step_instance(managed, window, result)
                for managed, result in zip(managed_all, results)
            ]
            self.balancer.drain(window)
        self.clock_s += window
        self.recorder.inc("repro_windows_total")
        for instance in self.balancer.instances:
            self.recorder.set_gauge(
                "repro_tuner_outstanding_seconds",
                instance.outstanding_s,
                tuner=instance.instance_id,
            )
        return outcomes

    def _step_instance(
        self, managed: ManagedInstance, window: float, result: ExecutionResult
    ) -> StepOutcome:
        with self.recorder.span(
            "instance.window",
            instance=managed.instance_id,
            duration_s=window,
            policy=managed.policy,
        ) as span:
            outcome = self._step_instance_inner(managed, window, result)
            # Masters are healed before the step, so no window is lost
            # to a crash; the attribute keeps the trace format.
            span.set(
                crashed=False,
                tuning_requested=outcome.tuning_requested,
                downtime_taken=outcome.downtime_taken,
            )
        self.recorder.set_gauge(
            "repro_throughput_tps", result.throughput, instance=managed.instance_id
        )
        return outcome

    def _step_instance_inner(
        self, managed: ManagedInstance, window: float, result: ExecutionResult
    ) -> StepOutcome:
        instance_id = managed.instance_id
        service = managed.deployment.service
        outcome = StepOutcome(instance_id=instance_id, result=result)
        managed.monitoring.ingest(result)
        managed.throughput_history.append(result.throughput)

        if self.governor is not None and managed.policy != "monitor":
            # Feed the watch before this window's tuning decision: a
            # promotion that regressed is reverted to the last-known-good
            # config right now, not after another recommendation lands.
            decision = self.governor.observe_window(
                instance_id,
                service.master.config,
                result.throughput,
                self.clock_s,
            )
            if decision is not None:
                revert_report = self.dfa.apply(
                    service, decision.config, instance_id=instance_id
                )
                if revert_report.applied:
                    self.orchestrator.persist_config(
                        instance_id, service.master.config
                    )
                else:
                    self.governor.revert_failed(instance_id)

        # The TDE reads the window through the monitoring agent (§2's
        # external monitoring), so telemetry gaps reach it as missing
        # series and it degrades instead of inspecting stale data.
        observed = managed.monitoring.filter_result(result)
        report = (
            managed.tde.inspect(observed) if managed.policy != "monitor" else None
        )
        outcome.tde_report = report

        request = self._tuning_decision(managed, result, report)
        if request is not None:
            outcome.tuning_requested = True
            split = self.director.handle_tuning_request(request)
            outcome.split = split
            if managed.apply_mode == "restart":
                # Native tuner deployment: the full recommendation lands
                # with a restart, downtime and all.
                master = service.master
                target = split.recommendation.config.fitted_to_budget(
                    master.vm.db_memory_limit_mb, master.active_connections
                )
                self.director.consume_downtime_changes(instance_id)
                outcome.apply_report = self.dfa.apply(
                    service, target, mode="restart", instance_id=instance_id
                )
            else:
                master = service.master
                target = split.reloadable.fitted_to_budget(
                    master.vm.db_memory_limit_mb, master.active_connections
                )
                if self.governor is not None:
                    move = self.governor.bound(
                        instance_id, master.config, target, self.clock_s
                    )
                    outcome.apply_report = self.dfa.apply(
                        service,
                        move.config,
                        instance_id=instance_id,
                        canary=CanaryContext(
                            batch=result.batch,
                            threshold=self.governor.policy.canary_threshold,
                        ),
                    )
                    if outcome.apply_report.canary_rejected:
                        self.governor.note_canary_rejection(instance_id)
                    if outcome.apply_report.applied:
                        self.governor.note_promotion(instance_id)
                else:
                    outcome.apply_report = self.dfa.apply(
                        service, target, instance_id=instance_id
                    )
            if outcome.apply_report.applied:
                self.orchestrator.persist_config(
                    instance_id, service.master.config
                )

        if self.orchestrator.downtime_due(instance_id, self.clock_s + window):
            outcome.downtime_taken = True
            self._run_downtime(managed)

        self.reconciler.tick(instance_id, service, self.clock_s + window)
        return outcome

    def _tuning_decision(
        self,
        managed: ManagedInstance,
        result: ExecutionResult,
        report: TDEReport | None,
    ) -> TuningRequest | None:
        """Sample upload + request decision under the instance's policy."""
        sample = TrainingSample(
            workload_id=result.batch.workload_name,
            config=result.config,
            metrics=result.metrics,
            timestamp_s=self.clock_s,
        )
        throttle_class, throttle_knobs = (
            report.focus() if report is not None else (None, ())
        )
        request = TuningRequest(
            instance_id=managed.instance_id,
            workload_id=result.batch.workload_name,
            config=result.config,
            metrics=result.metrics,
            throttle_class=throttle_class,
            throttle_knobs=throttle_knobs,
            timestamp_s=self.clock_s,
        )
        if managed.policy == "monitor":
            return None
        if managed.policy == "tde":
            if report is not None and report.needs_tuning:
                self._upload_sample(sample)  # high-quality, throttle-backed
                return request
            return None
        # periodic: every sample uploaded, request on the interval.
        self._upload_sample(sample)
        managed.since_last_periodic_s += result.duration_s
        if managed.since_last_periodic_s >= managed.periodic_interval_s:
            managed.since_last_periodic_s = 0.0
            return request
        return None

    def _upload_sample(self, sample: TrainingSample) -> None:
        """Store the sample once and stream it to every tuner instance.

        Policy-based tuners (RL) must see the sample stream to close their
        pending transitions; repository-backed tuners read the shared
        store and their ``learn`` is a no-op.
        """
        self.repository.add(sample)
        for instance in self.balancer.instances:
            instance.tuner.learn(sample)

    def _run_downtime(self, managed: ManagedInstance) -> None:
        """Scheduled maintenance: apply deferred + policy-sized buffer knob."""
        instance_id = managed.instance_id
        service = managed.deployment.service
        master = service.master
        deferred = self.director.consume_downtime_changes(instance_id)
        decision = self.downtime_policy.decide(
            instance_id=instance_id,
            current=master.config,
            working_set_mb=master.data_size_gb * 1024.0 * HOT_FRACTION,
            memory_limit_mb=master.vm.db_memory_limit_mb,
            entropy_hits=managed.tde.memory_detector.filter.entropy_hits,
            last_downtime_s=self.orchestrator.last_downtime_s(instance_id),
        )
        updates = dict(deferred)
        updates[decision.buffer_knob] = decision.new_value_mb
        target = master.config.clamped(updates).fitted_to_budget(
            master.vm.db_memory_limit_mb, master.active_connections
        )
        report = self.dfa.apply(
            service, target, mode="restart", instance_id=instance_id
        )
        if report.applied:
            self.orchestrator.persist_config(instance_id, target)
        self.orchestrator.record_downtime(instance_id, self.clock_s)

    # -- reporting ----------------------------------------------------------------

    def throttle_counts(self) -> dict[str, dict[str, int]]:
        """Per-instance throttle counts by knob class."""
        return {
            iid: {
                cls.value: count
                for cls, count in managed.tde.log.count_by_class().items()
            }
            for iid, managed in self.instances.items()
        }
