"""The §3.3 learning automaton — the MDP {Q, A, B, N, H}.

Per async/planner knob the TDE keeps a tiny two-action learning automaton:

- **Q** — internal states: the knob values tried (the automaton's state is
  its current knob value);
- **A** — actions: increase / decrease by a unit step, each carrying its
  own probability;
- **B** — environment response: planner cost/benefit on the sampled
  queries;
- **N** — state transition: apply the chosen step (clamped to the range);
- **H** — action selection: sample from the action probabilities, then
  adjust them by a linear reward-penalty (L_RP) scheme from the response.

The automaton starts uniform ("the MDP starts with random set of actions")
and concentrates probability on the profitable direction as episodes
accumulate, which is the learning progress Fig. 6 plots.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import make_rng
from repro.dbsim.knobs import KnobDef

__all__ = ["LearningAutomaton"]

_ACTIONS = ("increase", "decrease")


class LearningAutomaton:
    """Two-action L_RP learning automaton over one knob.

    Parameters
    ----------
    knob:
        The knob definition (range gives the unit step).
    step_fraction:
        Unit step as a fraction of the knob range ("defined statically").
    lr_reward / lr_penalty:
        Linear reward-penalty learning rates.
    """

    def __init__(
        self,
        knob: KnobDef,
        step_fraction: float = 0.06,
        lr_reward: float = 0.2,
        lr_penalty: float = 0.06,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if not 0.0 < step_fraction <= 0.5:
            raise ValueError("step_fraction must be in (0, 0.5]")
        self.knob = knob
        self.step = step_fraction * (knob.max_value - knob.min_value)
        self.lr_reward = lr_reward
        self.lr_penalty = lr_penalty
        self._rng = make_rng(seed)
        self._p = {action: 0.5 for action in _ACTIONS}

    def choose_action(self) -> str:
        """Sample an action from the current distribution (the H mapping).

        One uniform draw against the normalised cdf: what
        ``rng.choice(_ACTIONS, p=...)`` does (``searchsorted`` with
        ``side="right"``), drawing the same from the stream.
        """
        p_increase = self._p["increase"]
        threshold = p_increase / (p_increase + self._p["decrease"])
        return "increase" if self._rng.random() < threshold else "decrease"

    def next_value(self, current: float, action: str) -> float:
        """The N mapping: apply *action*'s unit step, clamped to range."""
        if action == "increase":
            return self.knob.clamp(current + self.step)
        if action == "decrease":
            return self.knob.clamp(current - self.step)
        raise ValueError(f"unknown action {action!r}")

    def update(self, action: str, rewarded: bool) -> None:
        """L_RP probability update from the environment response (B)."""
        other = "decrease" if action == "increase" else "increase"
        if rewarded:
            self._p[action] += self.lr_reward * (1.0 - self._p[action])
        else:
            self._p[action] -= self.lr_penalty * self._p[action]
        self._p[other] = 1.0 - self._p[action]
