"""The config director (§2): routing, bookkeeping, downtime deferral.

The config director receives metric data and tuning requests from the
service instances' TDEs, load-balances recommendation work across tuner
instances, stores every recommendation in the config repository, and
splits recommendations into a reload-able part (forwarded immediately to
the apply pipeline) and a restart-required part (held for the instance's
next scheduled maintenance downtime, per §4's non-tunable-knob handling).

It also keeps the tuning-request counters that are the paper's scalability
evidence (Fig. 9 plots requests per minute across the fleet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.recording import NULL_RECORDER, Recorder
from repro.core.director.breaker import BreakerPolicy, CircuitBreaker
from repro.core.director.config_repository import ConfigRepository
from repro.core.director.load_balancer import (
    LeastLoadedBalancer,
    NoHealthyTuners,
    TunerInstance,
)
from repro.dbsim.config import KnobConfiguration
from repro.tuners.base import Recommendation, TunerUnavailable, TuningRequest

if TYPE_CHECKING:
    from repro.core.features import Features

__all__ = ["SplitRecommendation", "ConfigDirector"]

#: Source tag on recommendations served from the config repository while
#: every tuner instance is tripped or unreachable.
FALLBACK_SOURCE = "last-known-good"


@dataclass
class SplitRecommendation:
    """A recommendation split into now-appliable and downtime parts."""

    recommendation: Recommendation
    reloadable: KnobConfiguration
    deferred_knobs: dict[str, float] = field(default_factory=dict)

    @property
    def has_deferred(self) -> bool:
        return bool(self.deferred_knobs)


class ConfigDirector:
    """Routes tuning requests and manages configuration state."""

    def __init__(
        self,
        balancer: LeastLoadedBalancer,
        config_repository: ConfigRepository | None = None,
        breaker_policy: BreakerPolicy | None = None,
        recorder: Recorder | None = None,
        features: Features | None = None,
    ) -> None:
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.balancer = balancer
        self.configs = (
            config_repository if config_repository is not None else ConfigRepository()
        )
        self.breaker_policy = (
            breaker_policy if breaker_policy is not None else BreakerPolicy()
        )
        self.breakers: dict[str, CircuitBreaker] = {}
        self.fallbacks_served = 0
        self.request_times: list[float] = []
        self._pending_downtime: dict[str, dict[str, float]] = {}
        self._knob_floors: dict[str, dict[str, float]] = {}
        # The opt-in tuner tiers (surrogate screen, knob selection) are
        # offered to every tuner instance, and each adopts what applies
        # to its recommendation mechanism. An empty bundle (the default)
        # configures nothing, so every output stays byte-identical.
        if features:
            for instance in self.balancer.instances:
                instance.tuner.configure(features)

    # -- request handling -----------------------------------------------------

    def handle_tuning_request(self, request: TuningRequest) -> SplitRecommendation:
        """Route *request* to a tuner and split the recommendation.

        The director remembers per-instance *floors* for knobs that memory
        throttles implicated: a later recommendation — produced by a tuner
        whose surrogate is indifferent to a knob — must not regress below
        a value a previous throttle forced up, or the same throttle
        re-fires forever.

        Routing is failure-hardened: a tuner raising
        :class:`~repro.tuners.base.TunerUnavailable` counts against its
        circuit breaker (tripping takes the instance out of rotation for
        the breaker cooldown) and the request is retried on the remaining
        instances — at most once each, never an unbounded loop. When no
        instance can serve, the director answers from the config
        repository's last-known-good version instead of failing the
        service instance.
        """
        self.request_times.append(request.timestamp_s)
        self.recorder.inc(
            "repro_tuning_requests_total", instance=request.instance_id
        )
        self._raise_floors(request)
        now = request.timestamp_s
        self._refresh_breakers(now)
        with self.recorder.span(
            "director.route",
            instance=request.instance_id,
            workload=request.workload_id,
            throttle_class=request.throttle_class,
        ) as span:
            tried: set[str] = set()
            # Bounded retry: every registered instance is tried at most once.
            for _ in range(len(self.balancer.instances)):
                try:
                    instance = self.balancer.pick(exclude=tried)
                except NoHealthyTuners:
                    break
                # Charge the queue before recommending (assign() semantics —
                # the cost model may shift once the surrogate refits) and
                # refund if the instance turns out to be unreachable.
                cost = instance.tuner.recommendation_cost_s()
                instance.outstanding_s += cost
                instance.requests_served += 1
                try:
                    with self.recorder.span(
                        "tuner.recommend",
                        instance=request.instance_id,
                        duration_s=cost,
                        tuner=instance.instance_id,
                        source=instance.tuner.name,
                    ):
                        recommendation = instance.tuner.recommend(request)
                except TunerUnavailable:
                    instance.outstanding_s = max(
                        0.0, instance.outstanding_s - cost
                    )
                    instance.requests_served -= 1
                    tried.add(instance.instance_id)
                    self.recorder.event(
                        "director.failover",
                        instance=request.instance_id,
                        tuner=instance.instance_id,
                    )
                    self.recorder.inc(
                        "repro_tuner_failures_total", tuner=instance.instance_id
                    )
                    self._record_failure(instance, now)
                    continue
                self.recorder.observe("repro_recommendation_cost_seconds", cost)
                self._breaker_for(instance.instance_id).record_success()
                recommendation.config = self._apply_floors(
                    request.instance_id, recommendation.config
                )
                self.configs.store(
                    request.instance_id,
                    recommendation.config,
                    recommendation.source,
                    request.timestamp_s,
                )
                split = self._split(request.config, recommendation)
                span.set(
                    source=recommendation.source,
                    tuner=instance.instance_id,
                    deferred=len(split.deferred_knobs),
                )
                return split
            split = self._serve_fallback(request)
            span.set(source=FALLBACK_SOURCE, deferred=len(split.deferred_knobs))
            return split

    # -- circuit breaking --------------------------------------------------------

    def _breaker_for(self, tuner_instance_id: str) -> CircuitBreaker:
        breaker = self.breakers.get(tuner_instance_id)
        if breaker is None:
            breaker = CircuitBreaker(policy=self.breaker_policy)
            self.breakers[tuner_instance_id] = breaker
        return breaker

    def _record_failure(self, instance: TunerInstance, now_s: float) -> None:
        if self._breaker_for(instance.instance_id).record_failure(now_s):
            self.balancer.set_health(instance.instance_id, False)
            self.recorder.event("breaker.open", tuner=instance.instance_id)
            self.recorder.inc(
                "repro_breaker_trips_total", tuner=instance.instance_id
            )

    def _refresh_breakers(self, now_s: float) -> None:
        """Let cooled-down breakers re-admit their instances (half-open)."""
        for tuner_instance_id, breaker in self.breakers.items():
            if breaker.try_half_open(now_s):
                self.balancer.set_health(tuner_instance_id, True)
                self.recorder.event("breaker.half_open", tuner=tuner_instance_id)

    def breaker_trips(self) -> int:
        """Total times any tuner instance's breaker tripped."""
        return sum(b.times_tripped for b in self.breakers.values())

    def _serve_fallback(self, request: TuningRequest) -> SplitRecommendation:
        """Answer from the config repository while the breakers are open.

        The last-known-good version is the most recent recommendation the
        director itself stored for the instance; with no history at all
        the fallback simply holds the current configuration. Either way
        the service instance gets a valid (possibly stale) answer instead
        of an error from deep inside the tuning layer.
        """
        self.fallbacks_served += 1
        self.recorder.event("director.fallback", instance=request.instance_id)
        self.recorder.inc("repro_fallbacks_served_total")
        latest = self.configs.latest(request.instance_id)
        config = latest.config if latest is not None else request.config
        recommendation = Recommendation(
            instance_id=request.instance_id,
            config=self._apply_floors(request.instance_id, config),
            source=FALLBACK_SOURCE,
        )
        return self._split(request.config, recommendation)

    # -- floor management --------------------------------------------------------

    def _raise_floors(self, request: TuningRequest) -> None:
        if request.throttle_class != "memory" or not request.throttle_knobs:
            return
        floors = self._knob_floors.setdefault(request.instance_id, {})
        for name in request.throttle_knobs:
            if name not in request.config.catalog:
                continue
            knob = request.config.catalog.get(name)
            # Only tunable *memory* knobs get floors: throttle_knobs may
            # union knobs from co-occurring non-memory throttles, and
            # ratcheting a planner knob upward would be nonsense.
            if knob.restart_required or knob.knob_class.value != "memory":
                continue
            floors[name] = max(
                floors.get(name, 0.0), knob.clamp(2.0 * request.config[name])
            )

    def _apply_floors(self, instance_id: str, config: KnobConfiguration):
        floors = self._knob_floors.get(instance_id)
        if not floors:
            return config
        updates = {
            name: floor
            for name, floor in floors.items()
            if config[name] < floor
        }
        return config.with_values(updates) if updates else config

    def _split(
        self, current: KnobConfiguration, recommendation: Recommendation
    ) -> SplitRecommendation:
        deferred_names = recommendation.restart_required_changes(current)
        deferred = {
            name: recommendation.config[name] for name in deferred_names
        }
        if deferred:
            pending = self._pending_downtime.setdefault(
                recommendation.instance_id, {}
            )
            pending.update(deferred)
        reload_values = recommendation.config.as_dict()
        for name in deferred:
            reload_values[name] = current[name]
        reloadable = KnobConfiguration(current.catalog, reload_values)
        return SplitRecommendation(
            recommendation=recommendation,
            reloadable=reloadable,
            deferred_knobs=deferred,
        )

    # -- downtime management -----------------------------------------------------

    def pending_downtime_changes(self, instance_id: str) -> dict[str, float]:
        """Restart-required knob values waiting for the next downtime."""
        return dict(self._pending_downtime.get(instance_id, {}))

    def consume_downtime_changes(self, instance_id: str) -> dict[str, float]:
        """Pop (and return) the pending downtime changes for an instance."""
        return self._pending_downtime.pop(instance_id, {})

    # -- Fig. 9 accounting -----------------------------------------------------------

    def requests_per_minute(
        self, window_start_s: float, window_end_s: float
    ) -> float:
        """Mean tuning requests per minute inside a time window."""
        if window_end_s <= window_start_s:
            raise ValueError("window_end_s must exceed window_start_s")
        count = sum(
            1 for t in self.request_times if window_start_s <= t < window_end_s
        )
        return count / ((window_end_s - window_start_s) / 60.0)

    @property
    def total_requests(self) -> int:
        return len(self.request_times)
