"""Property-based tests (hypothesis) on the safety governor.

Three invariants safe online tuning must hold for *any* seed:

- ``SafetyGovernor.bound`` always returns a config inside both the step
  budget (L-inf in normalised knob space) and every knob's legal range;
  a candidate already inside the budget passes through untouched.
- An auto-revert restores the anchor configuration byte-identically:
  after the DFA applies the revert decision, every node carries exactly
  the pre-promotion config.
- A canary rejection never mutates the master (nor leaves the canary
  slave on the candidate), whatever the candidate was.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import make_rng
from repro.core.apply import CanaryContext, DataFederationAgent
from repro.core.director import ConfigRepository, GovernorPolicy, SafetyGovernor
from repro.dbsim import KnobConfiguration, ReplicatedService, postgres_catalog
from repro.tuners.base import config_to_vector, vector_to_config
from repro.workloads import TPCCWorkload

seeds = st.integers(min_value=0, max_value=2**31 - 1)
budgets = st.floats(min_value=0.05, max_value=1.0)

_EPS = 1e-6


def _random_candidate(catalog, seed, reload_only=False):
    """A uniform draw from the normalised knob space, as a config."""
    rng = make_rng(seed)
    base = KnobConfiguration(catalog)
    values = vector_to_config(rng.random(len(catalog)), catalog)
    updates = {
        knob.name: values[knob.name]
        for knob in catalog
        if not (reload_only and knob.restart_required)
    }
    return base.with_values(updates)


class TestBoundedMoves:
    @given(seeds, budgets)
    @settings(max_examples=50, deadline=None)
    def test_bounded_within_budget_and_ranges(self, seed, budget):
        catalog = postgres_catalog()
        incumbent = KnobConfiguration(catalog)
        candidate = _random_candidate(catalog, seed)
        governor = SafetyGovernor(
            ConfigRepository(), policy=GovernorPolicy(step_budget=budget)
        )
        move = governor.bound("svc", incumbent, candidate, 0.0)

        delta = config_to_vector(move.config) - config_to_vector(incumbent)
        distance = float(np.max(np.abs(delta))) if delta.size else 0.0
        assert distance <= budget + _EPS
        by_name = {knob.name: knob for knob in catalog}
        for name, value in move.config.as_dict().items():
            knob = by_name[name]
            assert knob.min_value - _EPS <= value <= knob.max_value + _EPS

    @given(seeds, budgets)
    @settings(max_examples=50, deadline=None)
    def test_within_budget_passes_through_byte_identical(self, seed, budget):
        catalog = postgres_catalog()
        incumbent = KnobConfiguration(catalog)
        candidate = _random_candidate(catalog, seed)
        governor = SafetyGovernor(
            ConfigRepository(), policy=GovernorPolicy(step_budget=budget)
        )
        original = float(
            np.max(
                np.abs(config_to_vector(candidate) - config_to_vector(incumbent))
            )
        )
        move = governor.bound("svc", incumbent, candidate, 0.0)
        if original <= budget:
            assert not move.clamped
            assert move.config == candidate
            assert move.config.as_dict() == candidate.as_dict()
        else:
            assert move.clamped


class TestRevertRestoresIncumbent:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_revert_is_byte_identical(self, seed):
        service = ReplicatedService(
            "postgres", "m4.large", 20.0, replicas=2, seed=seed % 97
        )
        good = service.master.config
        bad = _random_candidate(good.catalog, seed, reload_only=True)
        governor = SafetyGovernor(ConfigRepository())
        dfa = DataFederationAgent()

        governor.observe_window("svc", good, 100.0, 0.0)
        assert dfa.apply(service, bad).applied
        governor.note_promotion("svc")
        decision = governor.observe_window(
            "svc", service.master.config, 10.0, 600.0
        )
        assert decision is not None
        assert dfa.apply(service, decision.config).applied
        for node in service.nodes:
            assert node.config == good
            assert node.config.as_dict() == good.as_dict()


class TestCanaryRejectionLeavesMasterAlone:
    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_rejection_never_mutates_master(self, seed):
        service = ReplicatedService(
            "postgres", "m4.large", 20.0, replicas=2, seed=seed % 97
        )
        before = service.master.config
        slave_before = service.slaves[0].config
        candidate = _random_candidate(before.catalog, seed, reload_only=True)
        batch = TPCCWorkload(rps=400.0, seed=seed % 31).batch(20.0)
        # An unreachable threshold forces the rejection path regardless of
        # what the draw did to throughput.
        report = DataFederationAgent().apply(
            service,
            candidate,
            canary=CanaryContext(batch=batch, threshold=1e9),
        )
        assert not report.applied
        assert report.canary_rejected
        assert service.master.config == before
        assert service.master.config.as_dict() == before.as_dict()
        assert service.slaves[0].config == slave_before
