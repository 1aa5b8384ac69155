"""The Throttling Detection Engine — the paper's central contribution.

The TDE "gets periodically executed on the database master VM (like a
plugin)" (§2): once per monitoring window it runs the three class
detectors over the window's observables and emits throttles. The config
director turns throttles into tuning requests; no throttle, no request —
that event-driven break from periodic polling is what Fig. 9 measures.

The TDE is also the sample-quality gate: a window that raised a throttle
is a *high-quality* sample worth uploading to the tuner repository; a
quiet window is not (Figs. 12–13).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.recording import NULL_RECORDER, Recorder
from repro.core.tde.bgwriter_detector import BgwriterThrottleDetector
from repro.core.tde.memory_detector import MemoryThrottleDetector
from repro.core.tde.planner_detector import PlannerThrottleDetector
from repro.core.tde.throttle import PlanUpgradeRequest, Throttle
from repro.dbsim.engine import ExecutionResult, SimulatedDatabase
from repro.dbsim.knobs import KnobClass
from repro.tuners.repository import WorkloadRepository

__all__ = ["TDEReport", "ThrottlingDetectionEngine"]


@dataclass
class TDEReport:
    """Everything one TDE round produced."""

    throttles: list[Throttle] = field(default_factory=list)
    escalations: list[PlanUpgradeRequest] = field(default_factory=list)
    #: True when monitoring telemetry was missing this window and one or
    #: more detectors were skipped rather than run on empty data.
    degraded: bool = False

    @property
    def needs_tuning(self) -> bool:
        """Whether this window should trigger a tuning request.

        Restart-required throttles (buffer gauging) do not count: the
        config director only collects them and acts at scheduled downtime
        (§3.1), so they must not generate per-window recommendation load.
        """
        return any(not t.requires_restart for t in self.throttles)

    def focus(self) -> tuple[str | None, tuple[str, ...]]:
        """How this round labels a tuning request: ``(class, knobs)``.

        The class is the first actionable throttle's; the knobs are the
        sorted union over every actionable throttle. Restart-required
        throttles never label a request, so with none actionable this
        is ``(None, ())``.
        """
        actionable = [t for t in self.throttles if not t.requires_restart]
        if not actionable:
            return None, ()
        knobs = tuple(sorted({name for t in actionable for name in t.knobs}))
        return actionable[0].knob_class.value, knobs


class ThrottlingDetectionEngine:
    """Per-instance TDE plugin composing the three §3 detectors.

    Parameters
    ----------
    instance_id:
        The database service instance this TDE watches.
    db:
        The master-node database (for EXPLAIN probes and knob caps).
    repository:
        Shared tuner repository — the bgwriter detector reads baselines
        from it.
    enabled_classes:
        Restrict detection to a subset of knob classes (ablations,
        Fig. 14's per-class analysis).
    planner_trigger_every:
        Run the planner MDP probe every N-th window ("interval of 2 to 4
        minutes" against 30–60 s monitoring windows).
    recorder:
        Observability seam (:mod:`repro.common.recording`): each round
        opens a ``tde.inspect`` span, every detector emits a
        ``tde.verdict`` event, and throttles/degraded windows land in
        the metrics registry. Default: the no-op recorder.
    """

    def __init__(
        self,
        instance_id: str,
        db: SimulatedDatabase,
        repository: WorkloadRepository | None = None,
        enabled_classes: set[KnobClass] | None = None,
        planner_trigger_every: int = 4,
        seed: int = 0,
        recorder: Recorder | None = None,
    ) -> None:
        if planner_trigger_every < 1:
            raise ValueError("planner_trigger_every must be >= 1")
        self.instance_id = instance_id
        self.db = db
        self.repository = repository if repository is not None else WorkloadRepository()
        self.enabled_classes = (
            set(enabled_classes) if enabled_classes is not None else set(KnobClass)
        )
        self.planner_trigger_every = planner_trigger_every
        self.memory_detector = MemoryThrottleDetector(instance_id, seed=seed)
        self.bgwriter_detector = BgwriterThrottleDetector(
            instance_id, self.repository
        )
        self.planner_detector = PlannerThrottleDetector.for_database(
            instance_id, db, seed=seed
        )
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._throttle_counts: dict[KnobClass, int] = dict.fromkeys(KnobClass, 0)
        self._window_index = 0

    def count_by_class(self) -> dict[KnobClass, int]:
        """Throttles raised so far per knob class (the Figs. 10–11 bars)."""
        return dict(self._throttle_counts)

    def inspect(self, result: ExecutionResult) -> TDEReport:
        """Run one TDE round over an executed window.

        Degraded mode: the bgwriter detector reads disk latency from the
        *external monitoring agent* (§3.2), so a telemetry gap — an empty
        disk-latency array in the window — means it has nothing sound to
        compare against the baseline. It is skipped (no throttle, never an
        exception) and the report is marked ``degraded``; the DB-side
        detectors (memory, planner) observe the database directly and keep
        running.
        """
        report = TDEReport()
        report.degraded = len(result.data_disk.write_latency) == 0
        with self.recorder.span(
            "tde.inspect", instance=self.instance_id, window=self._window_index
        ) as span:
            if KnobClass.MEMORY in self.enabled_classes:
                memory = self.memory_detector.inspect(self.db, result)
                report.throttles.extend(memory.throttles)
                report.escalations.extend(memory.escalations)
                self.recorder.event(
                    "tde.verdict",
                    instance=self.instance_id,
                    detector="memory",
                    throttles=len(memory.throttles),
                    escalations=len(memory.escalations),
                )
            if KnobClass.BGWRITER in self.enabled_classes:
                if not report.degraded:
                    bgwriter = self.bgwriter_detector.inspect(result)
                    report.throttles.extend(bgwriter)
                    self.recorder.event(
                        "tde.verdict",
                        instance=self.instance_id,
                        detector="bgwriter",
                        throttles=len(bgwriter),
                    )
                else:
                    self.recorder.event(
                        "tde.verdict",
                        instance=self.instance_id,
                        detector="bgwriter",
                        skipped="telemetry-gap",
                    )
            run_planner = (
                KnobClass.ASYNC_PLANNER in self.enabled_classes
                and self._window_index % self.planner_trigger_every == 0
            )
            if run_planner:
                planner = self.planner_detector.inspect(self.db, result)
                report.throttles.extend(planner)
                self.recorder.event(
                    "tde.verdict",
                    instance=self.instance_id,
                    detector="planner",
                    throttles=len(planner),
                )
            span.set(
                throttles=len(report.throttles),
                degraded=report.degraded,
                needs_tuning=report.needs_tuning,
            )
        for throttle in report.throttles:
            self._throttle_counts[throttle.knob_class] += 1
            self.recorder.inc(
                "repro_throttles_total",
                instance=self.instance_id,
                knob_class=throttle.knob_class.value,
            )
        if report.degraded:
            self.recorder.inc(
                "repro_tde_degraded_windows_total", instance=self.instance_id
            )
        self._window_index += 1
        return report
