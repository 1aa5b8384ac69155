"""Unit tests for the fault-injection layer and the hardened control plane:
fault plans, injection shims, circuit breakers, balancer health, director
fallback, DFA retries/deadlines, reconciler bounds, orchestrator adopt."""

import pytest

from repro.cloud import Provisioner
from repro.core.apply import (
    AlreadyRegistered,
    DataFederationAgent,
    Reconciler,
    ServiceOrchestrator,
    adapter_for,
)
from repro.core.apply.adapters import DatabaseAdapter, NodeApplyResult
from repro.core.director import (
    FALLBACK_SOURCE,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    ConfigDirector,
    LeastLoadedBalancer,
    NoHealthyTuners,
    TunerInstance,
)
from repro.dbsim import KnobConfiguration, ReplicatedService
from repro.dbsim.metrics import MetricsDelta
from repro.obs import TraceRecorder
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultyAdapter,
    FaultyMonitoringAgent,
    FaultyTuner,
    strip_telemetry,
)
from repro.tuners import Recommendation, TuningRequest
from repro.tuners.base import Tuner, TunerUnavailable


class _StubTuner(Tuner):
    def __init__(self, catalog, cost_s=10.0, name="stub"):
        self.catalog = catalog
        self.cost_s = cost_s
        self.name = name
        self.recommend_calls = 0

    def observe(self, sample):
        pass

    def recommend(self, request):
        self.recommend_calls += 1
        config = request.config.with_values({"work_mem": 64})
        return Recommendation(request.instance_id, config, self.name)

    def recommendation_cost_s(self):
        return self.cost_s


class _DownTuner(_StubTuner):
    """A tuner whose deployment is permanently unreachable."""

    def recommend(self, request):
        self.recommend_calls += 1
        raise TunerUnavailable("deployment down")


def _request(catalog, t=0.0, instance_id="svc-1"):
    return TuningRequest(
        instance_id, "w", KnobConfiguration(catalog), MetricsDelta({}), timestamp_s=t
    )


class _FlakyAdapter(DatabaseAdapter):
    """Fails the first *failures* applies transiently, then delegates."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.flavor = inner.flavor
        self.remaining = failures
        self.calls = 0

    def apply(self, node, config, mode="reload"):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            return NodeApplyResult(
                ok=False, crashed=False, skipped_restart_required=(), error="flake"
            )
        return self.inner.apply(node, config, mode=mode)


# -- fault plans -----------------------------------------------------------


class TestFaultPlan:
    def test_compile_is_deterministic(self):
        a = FaultPlan.compile(3, ["t0", "t1"], ["s0", "s1"])
        b = FaultPlan.compile(3, ["t0", "t1"], ["s0", "s1"])
        assert a.events == b.events
        assert len(a.events) == len(FaultKind)

    def test_different_seeds_differ(self):
        a = FaultPlan.compile(3, ["t0", "t1"], ["s0", "s1"])
        b = FaultPlan.compile(4, ["t0", "t1"], ["s0", "s1"])
        assert a.events != b.events

    def test_standard_kinds_pin_the_original_six(self):
        """The standard chaos profile compiles the pre-BAD_RECOMMENDATION
        kinds explicitly, so adding fault kinds never shifts its draws."""
        from repro.experiments.chaos_recovery import STANDARD_KINDS

        assert FaultKind.BAD_RECOMMENDATION not in STANDARD_KINDS
        assert len(STANDARD_KINDS) == 6
        plan = FaultPlan.compile(
            3, ["t0", "t1"], ["s0", "s1"], kinds=STANDARD_KINDS
        )
        assert all(e.kind in STANDARD_KINDS for e in plan.events)

    def test_compile_default_includes_bad_recommendation(self):
        plan = FaultPlan.compile(3, ["t0", "t1"], ["s0", "s1"])
        assert any(
            e.kind is FaultKind.BAD_RECOMMENDATION
            for e in FaultPlan.compile(3, ["t0"], ["s0"]).events
        )
        assert len(plan.events) == len(FaultKind)

    def test_events_sorted_by_start(self):
        plan = FaultPlan.compile(9, ["t0"], ["s0"], events_per_kind=2)
        starts = [e.start_s for e in plan.events]
        assert starts == sorted(starts)

    def test_active_window_and_wildcard(self):
        event = FaultEvent(FaultKind.TUNER_OUTAGE, "*", 100.0, 50.0)
        plan = FaultPlan((event,))
        assert plan.active(FaultKind.TUNER_OUTAGE, "anything", 100.0) is event
        assert plan.active(FaultKind.TUNER_OUTAGE, "anything", 149.9) is event
        assert plan.active(FaultKind.TUNER_OUTAGE, "anything", 150.0) is None
        assert plan.active(FaultKind.APPLY_CRASH, "anything", 120.0) is None

    def test_last_fault_end(self):
        plan = FaultPlan(
            (
                FaultEvent(FaultKind.TUNER_OUTAGE, "t0", 0.0, 10.0),
                FaultEvent(FaultKind.APPLY_CRASH, "s0", 50.0, 5.0),
            )
        )
        assert plan.last_fault_end_s() == 55.0
        assert FaultPlan(()).last_fault_end_s() == 0.0

    def test_compile_confined_to_fault_phase(self):
        plan = FaultPlan.compile(
            11, ["t0"], ["s0"], window_s=100.0, start_window=2, end_window=8
        )
        for event in plan.events:
            assert 200.0 <= event.start_s < 800.0
            assert event.end_s <= 800.0 + 1e-9


class TestFaultInjector:
    def test_disabled_injector_is_transparent(self):
        plan = FaultPlan(
            (FaultEvent(FaultKind.TUNER_OUTAGE, "t0", 0.0, 1e9),)
        )
        injector = FaultInjector(plan, enabled=False)
        assert injector.hit(FaultKind.TUNER_OUTAGE, "t0") is None
        assert injector.log == []

    def test_hit_logs_delivery(self):
        plan = FaultPlan(
            (FaultEvent(FaultKind.APPLY_CRASH, "s0", 10.0, 10.0),)
        )
        injector = FaultInjector(plan)
        assert injector.hit(FaultKind.APPLY_CRASH, "s0") is None  # t=0
        injector.advance(15.0)
        assert injector.hit(FaultKind.APPLY_CRASH, "s0") is not None
        assert injector.delivered(FaultKind.APPLY_CRASH) == 1
        assert injector.delivered(FaultKind.TUNER_OUTAGE) == 0


# -- injection shims -------------------------------------------------------


class TestFaultyTuner:
    def _shimmed(self, catalog, kind, magnitude=1.0):
        plan = FaultPlan((FaultEvent(kind, "t0", 0.0, 100.0, magnitude),))
        injector = FaultInjector(plan)
        return FaultyTuner(_StubTuner(catalog), injector, "t0"), injector

    def test_outage_raises_typed_error(self, pg_catalog):
        tuner, _ = self._shimmed(pg_catalog, FaultKind.TUNER_OUTAGE)
        with pytest.raises(TunerUnavailable):
            tuner.recommend(_request(pg_catalog))

    def test_outage_over_passes_through(self, pg_catalog):
        tuner, injector = self._shimmed(pg_catalog, FaultKind.TUNER_OUTAGE)
        injector.advance(500.0)
        rec = tuner.recommend(_request(pg_catalog))
        assert rec.source == "stub"

    def test_slow_recommendation_inflates_cost(self, pg_catalog):
        tuner, injector = self._shimmed(
            pg_catalog, FaultKind.SLOW_RECOMMENDATION, magnitude=5.0
        )
        assert tuner.recommendation_cost_s() == 50.0
        injector.advance(500.0)
        assert tuner.recommendation_cost_s() == 10.0


class TestFaultyAdapter:
    def _service(self):
        return ReplicatedService("postgres", "m4.large", 20.0, replicas=1, seed=3)

    def test_transient_failure_leaves_node_untouched(self):
        service = self._service()
        plan = FaultPlan(
            (FaultEvent(FaultKind.APPLY_FAILURE, "svc", 0.0, 100.0),)
        )
        adapter = FaultyAdapter(adapter_for("postgres"), FaultInjector(plan), "svc")
        before = service.master.config
        result = adapter.apply(
            service.master, before.with_values({"work_mem": 64})
        )
        assert not result.ok and not result.crashed
        assert service.master.config == before

    def test_crash_mid_apply_lands_config_and_downs_node(self):
        service = self._service()
        plan = FaultPlan((FaultEvent(FaultKind.APPLY_CRASH, "svc", 0.0, 100.0),))
        adapter = FaultyAdapter(adapter_for("postgres"), FaultInjector(plan), "svc")
        target = service.master.config.with_values({"work_mem": 64})
        result = adapter.apply(service.master, target)
        assert result.crashed and not result.ok
        assert service.master.crashed
        assert service.master.config["work_mem"] == 64  # config landed first

    def test_register_service_scopes_targets(self):
        service_a, service_b = self._service(), self._service()
        plan = FaultPlan((FaultEvent(FaultKind.APPLY_FAILURE, "a", 0.0, 100.0),))
        adapter = FaultyAdapter(adapter_for("postgres"), FaultInjector(plan))
        adapter.register_service("a", service_a.nodes)
        adapter.register_service("b", service_b.nodes)
        target = service_a.master.config.with_values({"work_mem": 64})
        assert not adapter.apply(service_a.master, target).ok
        assert adapter.apply(service_b.master, target).ok


class TestTelemetryGap:
    def test_strip_telemetry_empties_disk_series(self, pg_db, tpcc):
        result = pg_db.run(tpcc.batch(20.0))
        stripped = strip_telemetry(result)
        assert len(stripped.data_disk.write_latency) == 0
        assert stripped.throughput == result.throughput

    def test_gapped_agent_drops_ingest_and_strips(self, pg_db, tpcc):
        plan = FaultPlan(
            (FaultEvent(FaultKind.TELEMETRY_GAP, "db0", 0.0, 100.0),)
        )
        agent = FaultyMonitoringAgent("db0", FaultInjector(plan))
        result = pg_db.run(tpcc.batch(20.0))
        agent.ingest(result)
        assert agent.gap_windows == 1
        assert len(agent.write_latency) == 0
        assert len(agent.filter_result(result).data_disk.write_latency) == 0

    def test_tde_degrades_on_missing_telemetry(self, pg_db, tpcc):
        from repro.core.tde import ThrottlingDetectionEngine

        tde = ThrottlingDetectionEngine("db0", pg_db)
        result = pg_db.run(tpcc.batch(20.0))
        healthy = tde.inspect(result)
        assert not healthy.degraded
        degraded = tde.inspect(strip_telemetry(result))
        assert degraded.degraded  # bgwriter skipped, no exception raised


# -- circuit breaker -------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(policy=BreakerPolicy(failure_threshold=3))
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(1.0)
        assert breaker.record_failure(2.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_tripped == 1
        assert not breaker.allows_requests

    def test_success_resets_count(self):
        breaker = CircuitBreaker(policy=BreakerPolicy(failure_threshold=2))
        breaker.record_failure(0.0)
        breaker.record_success()
        assert not breaker.record_failure(1.0)  # count restarted

    def test_half_open_after_cooldown_then_close(self):
        breaker = CircuitBreaker(
            policy=BreakerPolicy(failure_threshold=1, cooldown_s=100.0)
        )
        breaker.record_failure(0.0)
        assert not breaker.try_half_open(50.0)
        assert breaker.try_half_open(100.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(
            policy=BreakerPolicy(failure_threshold=3, cooldown_s=100.0)
        )
        for t in range(3):
            breaker.record_failure(float(t))
        breaker.try_half_open(200.0)
        assert breaker.record_failure(201.0)  # single trial failure re-trips
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_tripped == 2

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(cooldown_s=0.0)


class TestBalancerHealth:
    def test_pick_skips_unhealthy(self, pg_catalog):
        a = TunerInstance("a", _StubTuner(pg_catalog, cost_s=1.0))
        b = TunerInstance("b", _StubTuner(pg_catalog, cost_s=100.0))
        balancer = LeastLoadedBalancer([a, b])
        balancer.set_health("a", False)
        assert balancer.pick().instance_id == "b"

    def test_no_healthy_tuners_typed_error(self, pg_catalog):
        balancer = LeastLoadedBalancer(
            [TunerInstance("a", _StubTuner(pg_catalog))]
        )
        balancer.set_health("a", False)
        with pytest.raises(NoHealthyTuners):
            balancer.pick()

    def test_exclusion_exhaustion_raises(self, pg_catalog):
        balancer = LeastLoadedBalancer(
            [TunerInstance("a", _StubTuner(pg_catalog))]
        )
        with pytest.raises(NoHealthyTuners):
            balancer.pick(exclude={"a"})

    def test_unknown_id_keyerror(self, pg_catalog):
        balancer = LeastLoadedBalancer(
            [TunerInstance("a", _StubTuner(pg_catalog))]
        )
        with pytest.raises(KeyError):
            balancer.set_health("nope", False)


# -- director failover and fallback ----------------------------------------


class TestDirectorFailover:
    def test_failover_to_second_instance(self, pg_catalog):
        down = TunerInstance("down", _DownTuner(pg_catalog, cost_s=1.0))
        up = TunerInstance("up", _StubTuner(pg_catalog, cost_s=100.0))
        director = ConfigDirector(LeastLoadedBalancer([down, up]))
        split = director.handle_tuning_request(_request(pg_catalog))
        assert split.recommendation.source == "stub"
        # The failed attempt was refunded on the down instance.
        assert down.outstanding_s == 0.0
        assert (down.tuner.recommend_calls, up.tuner.recommend_calls) == (1, 1)

    def test_breaker_trips_and_removes_from_rotation(self, pg_catalog):
        down = TunerInstance("down", _DownTuner(pg_catalog, cost_s=1.0))
        up = TunerInstance("up", _StubTuner(pg_catalog, cost_s=100.0))
        director = ConfigDirector(
            LeastLoadedBalancer([down, up]),
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_s=600.0),
        )
        director.handle_tuning_request(_request(pg_catalog, t=0.0))
        director.handle_tuning_request(_request(pg_catalog, t=10.0))
        assert director.breaker_trips() == 1
        assert not down.healthy
        # While open, requests route straight to the healthy instance.
        split = director.handle_tuning_request(_request(pg_catalog, t=20.0))
        assert split.recommendation.source == "stub"

    def test_half_open_readmission_after_cooldown(self, pg_catalog):
        down = TunerInstance("down", _DownTuner(pg_catalog, cost_s=1.0))
        up = TunerInstance("up", _StubTuner(pg_catalog, cost_s=100.0))
        director = ConfigDirector(
            LeastLoadedBalancer([down, up]),
            breaker_policy=BreakerPolicy(failure_threshold=1, cooldown_s=100.0),
        )
        director.handle_tuning_request(_request(pg_catalog, t=0.0))
        assert not down.healthy
        director.handle_tuning_request(_request(pg_catalog, t=150.0))
        # Re-admitted at half-open, failed its trial, straight back out.
        assert not down.healthy
        assert director.breaker_trips() == 2

    def test_fallback_serves_last_known_good(self, pg_catalog):
        good = TunerInstance("good", _StubTuner(pg_catalog, cost_s=1.0))
        director = ConfigDirector(
            LeastLoadedBalancer([good]),
            breaker_policy=BreakerPolicy(failure_threshold=1, cooldown_s=1e9),
        )
        split = director.handle_tuning_request(_request(pg_catalog, t=0.0))
        assert split.recommendation.config["work_mem"] == 64
        # Kill the only tuner: next answer comes from the repository.
        good.tuner = _DownTuner(pg_catalog)
        split = director.handle_tuning_request(_request(pg_catalog, t=10.0))
        assert split.recommendation.source == FALLBACK_SOURCE
        assert split.recommendation.config["work_mem"] == 64
        assert director.fallbacks_served == 1

    def test_fallback_with_empty_repository_holds_current(self, pg_catalog):
        down = TunerInstance("down", _DownTuner(pg_catalog))
        director = ConfigDirector(
            LeastLoadedBalancer([down]),
            breaker_policy=BreakerPolicy(failure_threshold=1, cooldown_s=1e9),
        )
        request = _request(pg_catalog, t=0.0)
        split = director.handle_tuning_request(request)
        assert split.recommendation.source == FALLBACK_SOURCE
        assert split.recommendation.config == request.config
        # Fallbacks are not stored as new versions (they add no information).
        assert director.configs.history("svc-1") == []


# -- DFA retries and deadlines ---------------------------------------------


class TestDFARetries:
    def _service(self):
        return ReplicatedService("postgres", "m4.large", 20.0, replicas=2, seed=5)

    def test_transient_failure_retried_to_success(self):
        service = self._service()
        adapter = _FlakyAdapter(adapter_for("postgres"), failures=2)
        dfa = DataFederationAgent(adapter=adapter, max_attempts=3, backoff_s=2.0)
        report = dfa.apply(
            service, service.config.with_values({"work_mem": 64})
        )
        assert report.applied
        assert report.attempts == 5  # 3 on slave0 (2 fail + 1 ok), 1 + 1
        assert report.backoff_s == 6.0  # 2 + 4
        assert service.configs_consistent()

    def test_attempt_bound_exhaustion_rejects_and_rolls_back(self):
        service = self._service()
        before = service.master.config
        adapter = _FlakyAdapter(adapter_for("postgres"), failures=100)
        dfa = DataFederationAgent(adapter=adapter, max_attempts=3)
        report = dfa.apply(service, before.with_values({"work_mem": 64}))
        assert not report.applied
        assert report.rejected_at == "slave0"
        assert report.deadline_exceeded
        assert report.attempts == 3
        assert all(node.config == before for node in service.nodes)

    def test_deadline_bounds_total_backoff(self):
        service = self._service()
        adapter = _FlakyAdapter(adapter_for("postgres"), failures=100)
        dfa = DataFederationAgent(
            adapter=adapter, max_attempts=50, backoff_s=8.0, apply_deadline_s=20.0
        )
        report = dfa.apply(
            service, service.config.with_values({"work_mem": 64})
        )
        assert not report.applied
        # Backoff stopped growing once it crossed the deadline.
        assert report.backoff_s >= 20.0
        assert report.attempts < 50

    def test_crash_is_never_retried(self):
        service = self._service()
        plan = FaultPlan((FaultEvent(FaultKind.APPLY_CRASH, "svc", 0.0, 100.0),))
        adapter = FaultyAdapter(
            adapter_for("postgres"), FaultInjector(plan), "svc"
        )
        dfa = DataFederationAgent(adapter=adapter, max_attempts=5)
        report = dfa.apply(
            service, service.config.with_values({"work_mem": 64})
        )
        assert not report.applied
        assert report.rejected_at == "slave0"
        assert not report.deadline_exceeded
        assert report.attempts == 1  # §4: a crash is a definitive rejection
        assert report.healed_slaves == [0]

    def test_validation(self):
        with pytest.raises(ValueError):
            DataFederationAgent(max_attempts=0)
        with pytest.raises(ValueError):
            DataFederationAgent(backoff_s=0.0)
        with pytest.raises(ValueError):
            DataFederationAgent(apply_deadline_s=-1.0)


# -- reconciler bounds -----------------------------------------------------


def _restore_counts(recorder):
    """``(restored, failed)`` node counts of each reconciler restore."""
    return [
        (e.attrs["restored"], e.attrs["failed"])
        for e in recorder.events
        if e.name == "reconcile.restore"
    ]


class TestReconcilerBounds:
    def _drifted(self):
        provisioner = Provisioner(seed=2)
        deployment = provisioner.provision(replicas=1)
        orchestrator = ServiceOrchestrator()
        orchestrator.register(deployment)
        service = deployment.service
        service.master.apply_config(
            service.master.config.with_values({"work_mem": 96}), mode="reload"
        )
        return orchestrator, deployment

    def test_restore_counts_nodes(self):
        orchestrator, deployment = self._drifted()
        recorder = TraceRecorder()
        reconciler = Reconciler(orchestrator, watcher_timeout_s=60.0, recorder=recorder)
        service = deployment.service
        reconciler.tick(deployment.instance_id, service, 0.0)
        action = reconciler.tick(deployment.instance_id, service, 120.0)
        assert action.reconciled
        assert _restore_counts(recorder) == [(2, 0)]
        assert service.configs_consistent()

    def test_unreachable_node_reported_not_spun_on(self):
        orchestrator, deployment = self._drifted()
        adapter = _FlakyAdapter(adapter_for("postgres"), failures=10_000)
        recorder = TraceRecorder()
        reconciler = Reconciler(
            orchestrator,
            watcher_timeout_s=60.0,
            adapter=adapter,
            max_attempts_per_node=2,
            recorder=recorder,
        )
        service = deployment.service
        reconciler.tick(deployment.instance_id, service, 0.0)
        action = reconciler.tick(deployment.instance_id, service, 120.0)
        assert action.drift_detected and not action.reconciled
        assert _restore_counts(recorder) == [(0, 2)]
        # Hard bound: exactly max_attempts_per_node calls per node.
        assert adapter.calls == 4

    def test_partial_failure_retries_next_tick(self):
        orchestrator, deployment = self._drifted()
        adapter = _FlakyAdapter(adapter_for("postgres"), failures=4)
        recorder = TraceRecorder()
        reconciler = Reconciler(
            orchestrator,
            watcher_timeout_s=60.0,
            adapter=adapter,
            max_attempts_per_node=2,
            recorder=recorder,
        )
        service = deployment.service
        reconciler.tick(deployment.instance_id, service, 0.0)
        failed = reconciler.tick(deployment.instance_id, service, 120.0)
        assert not failed.reconciled
        assert _restore_counts(recorder) == [(0, 2)]
        # Next tick the flakes are exhausted and the restore completes
        # immediately (the drift clock kept running, no fresh timeout).
        healed = reconciler.tick(deployment.instance_id, service, 180.0)
        assert healed.reconciled
        assert service.configs_consistent()

    def test_validation(self):
        orchestrator = ServiceOrchestrator()
        with pytest.raises(ValueError):
            Reconciler(orchestrator, max_attempts_per_node=0)


# -- orchestrator registration ---------------------------------------------


class TestOrchestratorRegistration:
    def test_double_register_raises(self):
        provisioner = Provisioner(seed=1)
        deployment = provisioner.provision()
        orchestrator = ServiceOrchestrator()
        orchestrator.register(deployment)
        with pytest.raises(AlreadyRegistered):
            orchestrator.register(deployment)

    def test_register_preserves_persisted_config_on_error(self):
        provisioner = Provisioner(seed=1)
        deployment = provisioner.provision()
        orchestrator = ServiceOrchestrator()
        orchestrator.register(deployment)
        tuned = deployment.service.master.config.with_values({"work_mem": 96})
        orchestrator.persist_config(deployment.instance_id, tuned)
        with pytest.raises(AlreadyRegistered):
            orchestrator.register(deployment)
        assert (
            orchestrator.persisted_config(deployment.instance_id) == tuned
        )

    def test_adopt_is_explicit_re_registration(self):
        provisioner = Provisioner(seed=1)
        deployment = provisioner.provision()
        orchestrator = ServiceOrchestrator()
        orchestrator.register(deployment)
        tuned = deployment.service.master.config.with_values({"work_mem": 96})
        orchestrator.persist_config(deployment.instance_id, tuned)
        orchestrator.adopt(deployment)
        # Adoption resets persistence to the master's live config.
        assert (
            orchestrator.persisted_config(deployment.instance_id)
            == deployment.service.master.config
        )
