"""Unit tests for the learning automaton (MDP {Q,A,B,N,H})."""

import pytest

from repro.core.tde.mdp import LearningAutomaton
from repro.dbsim.knobs import KnobClass, KnobDef, KnobUnit


def _knob():
    return KnobDef(
        "k", KnobClass.ASYNC_PLANNER, KnobUnit.COST, 5.0, 0.0, 10.0
    )


class TestActions:
    def test_starts_uniform(self):
        a = LearningAutomaton(_knob(), seed=0)
        assert a._p == {"increase": 0.5, "decrease": 0.5}

    def test_next_value_steps(self):
        a = LearningAutomaton(_knob(), step_fraction=0.1, seed=0)
        assert a.next_value(5.0, "increase") == pytest.approx(6.0)
        assert a.next_value(5.0, "decrease") == pytest.approx(4.0)

    def test_next_value_clamped(self):
        a = LearningAutomaton(_knob(), step_fraction=0.5, seed=0)
        assert a.next_value(9.0, "increase") == 10.0
        assert a.next_value(1.0, "decrease") == 0.0

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            LearningAutomaton(_knob()).next_value(5.0, "wiggle")

    def test_step_fraction_validation(self):
        with pytest.raises(ValueError):
            LearningAutomaton(_knob(), step_fraction=0.0)


class TestLearning:
    def test_reward_raises_action_probability(self):
        a = LearningAutomaton(_knob(), seed=0)
        a.update("increase", rewarded=True)
        probs = a._p
        assert probs["increase"] > 0.5
        assert probs["increase"] + probs["decrease"] == pytest.approx(1.0)

    def test_penalty_lowers_action_probability(self):
        a = LearningAutomaton(_knob(), seed=0)
        a.update("increase", rewarded=False)
        assert a._p["increase"] < 0.5

    def test_repeated_rewards_converge(self):
        a = LearningAutomaton(_knob(), seed=0)
        for _ in range(50):
            a.update("increase", rewarded=True)
        assert a._p["increase"] > 0.95

    def test_choose_action_follows_distribution(self):
        a = LearningAutomaton(_knob(), seed=1)
        for _ in range(40):
            a.update("decrease", rewarded=True)
        choices = [a.choose_action() for _ in range(50)]
        assert choices.count("decrease") > 40

    def test_probabilities_stay_normalised(self):
        a = LearningAutomaton(_knob(), seed=2)
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(200):
            action = a.choose_action()
            a.update(action, rewarded=bool(rng.integers(0, 2)))
            probs = a._p
            assert probs["increase"] + probs["decrease"] == pytest.approx(1.0)
            assert 0.0 <= probs["increase"] <= 1.0

    @pytest.mark.parametrize(
        "lr_reward, lr_penalty", [(0.2, 0.06), (0.04, 0.01), (0.9, 0.9), (1.0, 1.0)]
    )
    def test_update_keeps_a_distribution(self, lr_reward, lr_penalty):
        import numpy as np

        a = LearningAutomaton(
            _knob(), lr_reward=lr_reward, lr_penalty=lr_penalty, seed=4
        )
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a.update(a.choose_action(), rewarded=bool(rng.integers(0, 2)))
            p_increase, p_decrease = a._p.values()
            assert 0.0 <= p_increase <= 1.0
            assert 0.0 <= p_decrease <= 1.0
            assert abs(p_increase + p_decrease - 1.0) <= 1e-12
