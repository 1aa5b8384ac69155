"""Injection shims: wrappers that make healthy components misbehave.

Each shim wraps one control-plane dependency — a :class:`Tuner`, a
:class:`DatabaseAdapter`, a :class:`MonitoringAgent` — and consults a
shared :class:`FaultInjector` (plan + simulated clock) on every call.
With an empty plan every shim is a transparent pass-through, so a
fault-free chaos run is byte-identical to an unshimmed one.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.monitoring import MonitoringAgent
from repro.common.recording import NULL_RECORDER, Recorder
from repro.common.rng import derive_rng, make_rng
from repro.common.timeseries import TimeSeries
from repro.core.apply.adapters import DatabaseAdapter, NodeApplyResult
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.engine import ExecutionResult, SimulatedDatabase
from repro.dbsim.knobs import KnobClass
from repro.dbsim.storage import DiskWindowResult
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.tuners.base import (
    Recommendation,
    TrainingSample,
    Tuner,
    TunerUnavailable,
    TuningRequest,
    config_to_vector,
    vector_to_config,
)

if TYPE_CHECKING:
    from repro.core.features import Features

__all__ = [
    "FaultInjector",
    "InjectionRecord",
    "FaultyTuner",
    "FaultyAdapter",
    "FaultyMonitoringAgent",
    "strip_telemetry",
]


@dataclass(frozen=True)
class InjectionRecord:
    """One fault actually delivered (not merely scheduled)."""

    time_s: float
    kind: FaultKind
    target: str


@dataclass
class FaultInjector:
    """Shared plan + simulated clock every shim consults.

    The chaos harness calls :meth:`advance` once per monitoring window;
    shims then ask :meth:`hit` whether a given fault kind is active for
    their target *now*, and every delivered fault is logged for the
    report.
    """

    plan: FaultPlan
    now_s: float = 0.0
    enabled: bool = True
    log: list[InjectionRecord] = field(default_factory=list)
    #: Observability seam: delivered faults emit ``fault.delivered``
    #: events and count into ``repro_faults_delivered_total``.
    recorder: Recorder = field(default=NULL_RECORDER)

    def advance(self, now_s: float) -> None:
        """Move the injector's clock to simulated *now_s*."""
        self.now_s = now_s

    def hit(self, kind: FaultKind, target: str) -> FaultEvent | None:
        """The active event of *kind* for *target*, recording delivery."""
        if not self.enabled:
            return None
        event = self.plan.active(kind, target, self.now_s)
        if event is not None:
            self.log.append(InjectionRecord(self.now_s, kind, target))
            self.recorder.event(
                "fault.delivered", kind=kind.value, target=target
            )
            self.recorder.inc(
                "repro_faults_delivered_total", kind=kind.value
            )
        return event

    def delivered(self, kind: FaultKind) -> int:
        """How many faults of *kind* have actually been delivered."""
        return sum(1 for record in self.log if record.kind is kind)


class FaultyTuner(Tuner):
    """A tuner whose deployment suffers outages, slowdowns — or goes rogue.

    Under an active :attr:`~repro.faults.plan.FaultKind.BAD_RECOMMENDATION`
    event the shim lets the inner tuner answer, then adversarially
    rewrites the recommendation: every tunable (reloadable) knob is
    pushed toward a pathological extreme in the normalised knob space —
    working-memory knobs toward their minimum (forcing spills), the
    rest toward a seeded-random end of their range — scaled by the
    event's magnitude. The perturbation RNG is derived lazily from
    ``(seed, tuner_id)`` on the first delivered event, so a run whose
    plan never delivers one draws nothing and stays byte-identical to
    an unshimmed run.
    """

    def __init__(
        self,
        inner: Tuner,
        injector: FaultInjector,
        tuner_id: str,
        seed: int = 0,
    ) -> None:
        self.inner = inner
        self.injector = injector
        self.tuner_id = tuner_id
        self.seed = seed
        self.name = inner.name
        self._adversarial_rng: np.random.Generator | None = None

    def learn(self, sample: TrainingSample) -> None:
        self.inner.learn(sample)

    def bind_recorder(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.inner.bind_recorder(recorder)

    def recommend(self, request: TuningRequest) -> Recommendation:
        if self.injector.hit(FaultKind.TUNER_OUTAGE, self.tuner_id):
            raise TunerUnavailable(
                f"injected outage: tuner {self.tuner_id} is down"
            )
        recommendation = self.inner.recommend(request)
        event = self.injector.hit(FaultKind.BAD_RECOMMENDATION, self.tuner_id)
        if event is not None:
            recommendation.config = self._perturbed(
                recommendation.config, event.magnitude
            )
        return recommendation

    def recommendation_cost_s(self) -> float:
        cost = self.inner.recommendation_cost_s()
        event = self.injector.hit(FaultKind.SLOW_RECOMMENDATION, self.tuner_id)
        return cost * event.magnitude if event is not None else cost

    def configure(self, features: "Features") -> None:
        """Forward the feature bundle to the inner tuner.

        The shim only perturbs *delivered* recommendations; whether the
        inner tuner screens candidates or tunes a subspace is orthogonal
        to fault delivery, so the offer passes straight through.
        """
        self.inner.configure(features)

    def _perturbed(
        self, config: KnobConfiguration, magnitude: float
    ) -> KnobConfiguration:
        """Push every tunable knob toward an adversarial extreme."""
        if self._adversarial_rng is None:
            self._adversarial_rng = derive_rng(
                make_rng(self.seed), self.tuner_id
            )
        rng = self._adversarial_rng
        vector = config_to_vector(config)
        target = vector.copy()
        for i, knob in enumerate(config.catalog):
            if knob.restart_required:
                continue  # the reload path never moves these anyway
            if knob.knob_class is KnobClass.MEMORY:
                extreme = 0.0  # starve the working areas: spills everywhere
            else:
                extreme = 0.0 if float(rng.random()) < 0.5 else 1.0
            target[i] = vector[i] + (extreme - vector[i]) * magnitude
        raw = vector_to_config(target, config.catalog)
        updates = {
            knob.name: raw[knob.name]
            for knob in config.catalog
            if not knob.restart_required
        }
        return config.with_values(updates)


class FaultyAdapter(DatabaseAdapter):
    """An adapter whose applies fail transiently or crash mid-apply.

    A DFA holds *one* adapter for every service it touches, so the shim
    resolves the fault target per call: nodes registered through
    :meth:`register_service` map to their service's instance id, anything
    unregistered falls back to the constructor's ``service_id``.
    """

    def __init__(
        self,
        inner: DatabaseAdapter,
        injector: FaultInjector,
        service_id: str = "*",
    ) -> None:
        self.inner = inner
        self.injector = injector
        self.service_id = service_id
        self.flavor = inner.flavor
        self._node_targets: dict[int, str] = {}

    def register_service(
        self, service_id: str, nodes: Iterable[SimulatedDatabase]
    ) -> None:
        """Map *nodes* (an iterable of databases) to *service_id*."""
        for node in nodes:
            self._node_targets[id(node)] = service_id

    def _target(self, node: SimulatedDatabase) -> str:
        return self._node_targets.get(id(node), self.service_id)

    def apply(
        self,
        node: SimulatedDatabase,
        config: KnobConfiguration,
        mode: str = "reload",
    ) -> NodeApplyResult:
        target = self._target(node)
        if self.injector.hit(FaultKind.APPLY_FAILURE, target):
            return NodeApplyResult(
                ok=False,
                crashed=False,
                skipped_restart_required=(),
                error=f"injected transient apply failure on {target}",
            )
        if self.injector.hit(FaultKind.APPLY_CRASH, target):
            # Crash *mid*-apply: the config lands, then the process dies —
            # the worst case for §4's protocol, leaving both a down node
            # and config drift for the DFA/reconciler to clean up.
            result = self.inner.apply(node, config, mode=mode)
            if result.crashed:
                return result
            node.crashed = True
            return NodeApplyResult(
                ok=False,
                crashed=True,
                skipped_restart_required=result.skipped_restart_required,
                error=f"injected crash mid-apply on {target}",
            )
        return self.inner.apply(node, config, mode=mode)


def strip_telemetry(result: ExecutionResult) -> ExecutionResult:
    """The window as seen through a dead telemetry pipe.

    Disk latency/IOPS series come from external monitoring (§3.2); when
    that pipeline is down the TDE sees a window with *no* disk series —
    the degraded-mode input detectors must survive. Database-side
    observables (the query log, plans, throughput) are unaffected.
    """
    empty = DiskWindowResult(
        read_latency=TimeSeries("data.read_latency_ms", "ms"),
        write_latency=TimeSeries("data.write_latency_ms", "ms"),
        iops=TimeSeries("data.iops", "ops/s"),
    )
    return dataclasses.replace(result, data_disk=empty)


class FaultyMonitoringAgent(MonitoringAgent):
    """A monitoring agent whose ingest pipeline can drop windows."""

    def __init__(self, instance_id: str, injector: FaultInjector) -> None:
        super().__init__(instance_id)
        self.injector = injector
        self.gap_windows = 0

    def _gapped(self) -> bool:
        return (
            self.injector.hit(FaultKind.TELEMETRY_GAP, self.instance_id)
            is not None
        )

    def ingest(self, result: ExecutionResult) -> None:
        if self._gapped():
            self.gap_windows += 1
            return
        super().ingest(result)

    def filter_result(self, result: ExecutionResult) -> ExecutionResult:
        if self._gapped():
            return strip_telemetry(result)
        return result
