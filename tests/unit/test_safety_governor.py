"""Unit tests for safe online tuning: the SafetyGovernor (bounding,
watch/revert, quarantine), the DFA canary phase, the reconciler's
quarantine swap, the adversarial fault kind, and the governed facade."""

import numpy as np
import pytest

from repro.cloud import Provisioner
from repro.core.apply import (
    CanaryContext,
    DataFederationAgent,
    Reconciler,
    ServiceOrchestrator,
)
from repro.core.director import (
    REVERT_SOURCE,
    SAFETY_METRIC_FAMILIES,
    ConfigRepository,
    GovernorPolicy,
    SafetyGovernor,
)
from repro.dbsim import KnobConfiguration, ReplicatedService
from repro.dbsim.engine import DatabaseCrashed
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultyTuner,
)
from repro.tuners.base import config_to_vector
from repro.workloads import TPCCWorkload


def _governor(policy=None):
    return SafetyGovernor(ConfigRepository(), policy=policy)


def _watching(governor, instance_id):
    """Whether *instance_id* has a promotion under watch."""
    state = governor._states.get(instance_id)
    return state is not None and state.watching


def _service(replicas=2, seed=1):
    return ReplicatedService("postgres", "m4.large", 20.0, replicas=replicas, seed=seed)


def _batch(rps=400.0, duration_s=20.0):
    return TPCCWorkload(rps=rps, seed=4).batch(duration_s)


class TestGovernorPolicy:
    def test_defaults_valid(self):
        policy = GovernorPolicy()
        assert policy.step_budget == 0.2
        assert policy.watch_windows == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"step_budget": 0.0},
            {"step_budget": 1.5},
            {"canary_threshold": 0.0},
            {"revert_threshold": 1.2},
            {"watch_windows": 0},
            {"quarantine_s": 0.0},
            {"anchor_decay": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GovernorPolicy(**kwargs)


class TestBound:
    def test_identical_candidate_untouched(self, pg_catalog):
        governor = _governor()
        config = KnobConfiguration(pg_catalog)
        move = governor.bound("svc", config, config, 0.0)
        assert not move.clamped
        assert move.distance == 0.0
        assert move.config == config
        assert governor.clamps == 0

    def test_small_move_passes_through(self, pg_catalog):
        governor = _governor()
        incumbent = KnobConfiguration(pg_catalog)
        candidate = incumbent.with_values({"work_mem": 8})
        move = governor.bound("svc", incumbent, candidate, 0.0)
        assert not move.clamped
        assert move.config == candidate

    def test_oversized_move_clamped_to_budget(self, pg_catalog):
        policy = GovernorPolicy(step_budget=0.2)
        governor = _governor(policy)
        incumbent = KnobConfiguration(pg_catalog)
        updates = {
            knob.name: knob.max_value
            for knob in pg_catalog
            if not knob.restart_required
        }
        candidate = incumbent.with_values(updates)
        move = governor.bound("svc", incumbent, candidate, 0.0)
        assert move.clamped
        assert move.distance > policy.step_budget
        delta = config_to_vector(move.config) - config_to_vector(incumbent)
        bounded_distance = float(np.max(np.abs(delta)))
        assert bounded_distance <= policy.step_budget + 1e-6
        assert governor.clamps == 1

    def test_clamp_keeps_unchanged_knobs_byte_identical(self, pg_catalog):
        governor = _governor(GovernorPolicy(step_budget=0.05))
        incumbent = KnobConfiguration(pg_catalog)
        moved = next(k.name for k in pg_catalog if not k.restart_required)
        candidate = incumbent.with_values({moved: incumbent[moved] * 4 + 64})
        move = governor.bound("svc", incumbent, candidate, 0.0)
        for name, value in incumbent.as_dict().items():
            if name != moved:
                assert move.config[name] == value

    def test_bounded_values_stay_in_knob_ranges(self, pg_catalog):
        governor = _governor(GovernorPolicy(step_budget=0.3))
        incumbent = KnobConfiguration(pg_catalog)
        candidate = incumbent.with_values(
            {
                knob.name: knob.max_value
                for knob in pg_catalog
                if not knob.restart_required
            }
        )
        move = governor.bound("svc", incumbent, candidate, 0.0)
        by_name = {knob.name: knob for knob in pg_catalog}
        for name, value in move.config.as_dict().items():
            assert by_name[name].min_value <= value <= by_name[name].max_value


class TestWatchAndRevert:
    def _promoted(self, pg_catalog, policy=None):
        governor = _governor(policy)
        good = KnobConfiguration(pg_catalog)
        # Two healthy windows set the anchor to (100 tps, good config).
        assert governor.observe_window("svc", good, 100.0, 0.0) is None
        bad = good.with_values({"work_mem": 1})
        governor.note_promotion("svc")
        return governor, good, bad

    def test_regression_under_watch_reverts(self, pg_catalog):
        governor, good, bad = self._promoted(pg_catalog)
        decision = governor.observe_window("svc", bad, 50.0, 600.0)
        assert decision is not None
        assert decision.config == good
        assert governor.reverts == 1
        assert not _watching(governor, "svc")
        (incident,) = governor.incidents
        assert incident.reverted_config == bad
        assert incident.restored_config == good
        assert incident.time_s == 600.0
        latest = governor.configs.history("svc")[-1]
        assert latest.source == REVERT_SOURCE
        assert latest.config == good

    def test_healthy_watch_accepts_after_watch_windows(self, pg_catalog):
        governor, good, bad = self._promoted(
            pg_catalog, GovernorPolicy(watch_windows=2)
        )
        assert governor.observe_window("svc", bad, 99.0, 600.0) is None
        assert _watching(governor, "svc")
        assert governor.observe_window("svc", bad, 99.0, 900.0) is None
        assert not _watching(governor, "svc")
        assert governor.reverts == 0

    def test_no_revert_without_watch(self, pg_catalog):
        governor = _governor()
        config = KnobConfiguration(pg_catalog)
        governor.observe_window("svc", config, 100.0, 0.0)
        # Not watching: even a 90 % drop is just drift, not a revert.
        assert governor.observe_window("svc", config, 10.0, 300.0) is None
        assert governor.reverts == 0

    def test_revert_failed_rearms_watch(self, pg_catalog):
        governor, good, bad = self._promoted(pg_catalog)
        decision = governor.observe_window("svc", bad, 50.0, 600.0)
        assert decision is not None and not _watching(governor, "svc")
        governor.revert_failed("svc")
        assert _watching(governor, "svc")
        # The next regressed window orders the revert again.
        assert governor.observe_window("svc", bad, 40.0, 900.0) is not None
        assert governor.reverts == 2

    def test_anchor_decays_toward_drifted_workload(self, pg_catalog):
        policy = GovernorPolicy(anchor_decay=0.9)
        governor = _governor(policy)
        config = KnobConfiguration(pg_catalog)
        governor.observe_window("svc", config, 100.0, 0.0)
        state = governor._state("svc")
        # Lower-throughput windows decay the anchor instead of pinning it.
        governor.observe_window("svc", config, 80.0, 300.0)
        assert state.anchor_tps == pytest.approx(90.0)
        governor.observe_window("svc", config, 85.0, 600.0)
        assert state.anchor_tps == pytest.approx(85.0)
        assert state.anchor_config == config


class TestQuarantine:
    def _reverted(self, pg_catalog, policy=None):
        governor = _governor(policy)
        good = KnobConfiguration(pg_catalog)
        governor.observe_window("svc", good, 100.0, 0.0)
        bad = good.with_values({"work_mem": 1})
        governor.note_promotion("svc")
        governor.observe_window("svc", bad, 50.0, 600.0)
        return governor, good, bad

    def test_reverted_config_quarantined(self, pg_catalog):
        governor, good, bad = self._reverted(pg_catalog)
        assert governor.quarantined_replacement("svc", bad, 700.0) == good

    def test_quarantine_expires(self, pg_catalog):
        governor, good, bad = self._reverted(
            pg_catalog, GovernorPolicy(quarantine_s=100.0)
        )
        assert governor.quarantined_replacement("svc", bad, 650.0) == good
        assert governor.quarantined_replacement("svc", bad, 701.0) is None

    def test_other_configs_and_instances_clean(self, pg_catalog):
        governor, good, bad = self._reverted(pg_catalog)
        assert governor.quarantined_replacement("svc", good, 700.0) is None
        assert governor.quarantined_replacement("other", bad, 700.0) is None


class TestDFACanary:
    def test_canary_pass_promotes_everywhere(self):
        service = _service()
        batch = _batch()
        report = DataFederationAgent().apply(
            service,
            service.config.with_values({"work_mem": 64}),
            instance_id="svc",
            canary=CanaryContext(batch=batch),
        )
        assert report.applied
        assert report.canary_evaluated and not report.canary_rejected
        assert report.canary_baseline_tps > 0
        assert report.canary_tps > 0
        assert report.nodes_updated == 3
        assert service.configs_consistent()
        assert service.master.config["work_mem"] == 64

    def test_canary_rejects_real_regression(self):
        # At a saturating load, starving every reloadable knob measurably
        # regresses replay throughput; a tight threshold catches it.
        service = _service()
        batch = _batch(rps=3000.0)
        starved = service.config.with_values(
            {
                knob.name: knob.min_value
                for knob in service.config.catalog
                if not knob.restart_required
            }
        )
        previous = service.master.config
        report = DataFederationAgent().apply(
            service,
            starved,
            instance_id="svc",
            canary=CanaryContext(batch=batch, threshold=0.99),
        )
        assert not report.applied
        assert report.canary_rejected
        assert report.rejected_at == "canary"
        assert report.canary_tps < 0.99 * report.canary_baseline_tps
        # Never mutates the master; the canary slave is restored.
        assert service.master.config == previous
        assert service.slaves[0].config == previous

    def test_canary_compares_the_two_replays_throughput(self, monkeypatch):
        service = _service()
        node = service.slaves[0]
        real_run = node.run
        replays = []

        def recording_run(batch):
            replays.append(real_run(batch))
            return replays[-1]

        monkeypatch.setattr(node, "run", recording_run)
        report = DataFederationAgent().apply(
            service,
            service.config.with_values({"work_mem": 64}),
            instance_id="svc",
            canary=CanaryContext(batch=_batch()),
        )
        assert report.applied
        # Incumbent replay first, candidate second.
        assert len(replays) == 2
        assert replays[0].throughput == report.canary_baseline_tps
        assert replays[1].throughput == report.canary_tps

    def test_candidate_replay_crash_rejects_and_restores(self, monkeypatch):
        service = _service()
        previous = service.master.config
        node = service.slaves[0]
        real_run = node.run
        calls = {"n": 0}

        def crashing_second_run(batch):
            calls["n"] += 1
            if calls["n"] == 2:
                node.crashed = True
                raise DatabaseCrashed("canary replay crash")
            return real_run(batch)

        monkeypatch.setattr(node, "run", crashing_second_run)
        report = DataFederationAgent().apply(
            service,
            service.config.with_values({"work_mem": 64}),
            instance_id="svc",
            canary=CanaryContext(batch=_batch()),
        )
        assert not report.applied
        assert report.rejected_at == "canary"
        assert report.healed_slaves == [0]
        assert not node.crashed
        assert node.config == previous
        assert service.master.config == previous

    def test_no_slaves_skips_canary(self):
        service = _service(replicas=0)
        report = DataFederationAgent().apply(
            service,
            service.config.with_values({"work_mem": 64}),
            instance_id="svc",
            canary=CanaryContext(batch=_batch()),
        )
        assert report.applied
        assert not report.canary_evaluated


class TestReconcilerQuarantineSwap:
    def _deployment(self):
        provisioner = Provisioner(seed=3)
        deployment = provisioner.provision(replicas=2)
        orchestrator = ServiceOrchestrator()
        orchestrator.register(deployment)
        return orchestrator, deployment

    def test_reverted_config_never_reapplied(self, pg_catalog):
        """Regression: persisted intent holding a just-reverted config must
        converge to the incident's restored config, not back to the bad one."""
        orchestrator, deployment = self._deployment()
        service = deployment.service
        instance_id = deployment.instance_id
        good = service.master.config

        governor = _governor()
        governor.observe_window(instance_id, good, 100.0, 0.0)
        bad = good.with_values({"work_mem": 1})
        governor.note_promotion(instance_id)
        # The promotion was persisted before the regression was observed.
        orchestrator.persist_config(instance_id, bad)
        decision = governor.observe_window(instance_id, bad, 50.0, 600.0)
        assert decision is not None
        # The revert landed on the live fleet...
        report = DataFederationAgent().apply(
            service, decision.config, instance_id=instance_id
        )
        assert report.applied

        # ...but persistence still says "bad". An incident-log-aware
        # reconciler swaps the persisted intent instead of restoring it.
        reconciler = Reconciler(
            orchestrator, watcher_timeout_s=60.0, incident_log=governor
        )
        reconciler.tick(instance_id, service, 700.0)
        assert orchestrator.persisted_config(instance_id) == good
        action = reconciler.tick(instance_id, service, 900.0)
        assert not action.drift_detected
        assert service.master.config == good

    def test_without_incident_log_bad_config_comes_back(self, pg_catalog):
        """The counterfactual: an unaware reconciler re-applies the bad
        config from persistence — exactly the loop the seam closes."""
        orchestrator, deployment = self._deployment()
        service = deployment.service
        instance_id = deployment.instance_id
        good = service.master.config
        bad = good.with_values({"work_mem": 1})
        orchestrator.persist_config(instance_id, bad)

        reconciler = Reconciler(orchestrator, watcher_timeout_s=60.0)
        reconciler.tick(instance_id, service, 700.0)
        action = reconciler.tick(instance_id, service, 900.0)
        assert action.reconciled
        assert service.master.config == bad


class TestBadRecommendationFault:
    def _shimmed(self, catalog, magnitude=1.0, seed=0, enabled=True):
        from tests.unit.test_robustness import _StubTuner, _request

        plan = FaultPlan(
            (FaultEvent(FaultKind.BAD_RECOMMENDATION, "t0", 0.0, 100.0, magnitude),)
        )
        injector = FaultInjector(plan, enabled=enabled)
        tuner = FaultyTuner(_StubTuner(catalog), injector, "t0", seed=seed)
        return tuner, _request(catalog)

    def test_perturbs_reloadable_knobs_only(self, pg_catalog):
        tuner, request = self._shimmed(pg_catalog)
        honest = self._shimmed(pg_catalog, enabled=False)[0].recommend(request)
        rec = tuner.recommend(request)
        assert rec.config != honest.config
        for knob in pg_catalog:
            if knob.restart_required:
                assert rec.config[knob.name] == honest.config[knob.name]

    def test_memory_knobs_starved_at_full_magnitude(self, pg_catalog):
        from repro.dbsim.knobs import KnobClass

        tuner, request = self._shimmed(pg_catalog, magnitude=1.0)
        rec = tuner.recommend(request)
        for knob in pg_catalog:
            if knob.restart_required:
                continue
            if knob.knob_class is KnobClass.MEMORY:
                assert rec.config[knob.name] == pytest.approx(
                    knob.min_value, abs=1.0
                )

    def test_deterministic_across_identically_seeded_shims(self, pg_catalog):
        tuner_a, request = self._shimmed(pg_catalog, seed=5)
        tuner_b, _ = self._shimmed(pg_catalog, seed=5)
        assert tuner_a.recommend(request).config == tuner_b.recommend(request).config

    def test_disabled_injector_is_passthrough(self, pg_catalog):
        tuner, request = self._shimmed(pg_catalog, enabled=False)
        honest = self._shimmed(pg_catalog, enabled=False)[0]
        assert tuner.recommend(request).config == honest.recommend(request).config
        assert tuner._adversarial_rng is None


class TestGovernedFacade:
    def _svc(self, governor=None):
        from repro import AutoDBaaS
        from repro.dbsim import postgres_catalog
        from repro.tuners import OtterTuneTuner, WorkloadRepository

        repo = WorkloadRepository()
        tuner = OtterTuneTuner(
            postgres_catalog(), repo, memory_limit_mb=6553.6, seed=1
        )
        return AutoDBaaS([tuner], repo, window_s=60.0, governor=governor)

    def test_default_has_no_governor(self):
        svc = self._svc()
        assert svc.governor is None

    def test_governed_run_is_deterministic(self):
        def run():
            svc = self._svc(GovernorPolicy())
            deployment = Provisioner(seed=2).provision(
                plan="m4.large", data_size_gb=21.0
            )
            svc.attach(deployment, TPCCWorkload(seed=3), policy="tde")
            tps = []
            for _ in range(6):
                tps.extend(outcome.result.throughput for outcome in svc.step())
            governor = svc.governor
            counters = (
                governor.clamps,
                governor.canary_rejections,
                governor.reverts,
            )
            return tps, counters

        assert run() == run()


class TestSafetyMetricFamilies:
    def test_family_names_and_kind(self):
        assert set(SAFETY_METRIC_FAMILIES) == {
            "repro_safety_violations_total",
            "repro_canary_rejections_total",
            "repro_reverts_total",
        }
        for help_text in SAFETY_METRIC_FAMILIES.values():
            assert help_text
