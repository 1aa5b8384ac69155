"""The RL-style tuner (CDBTune-like DDPG, Zhang et al. 2019).

Deep deterministic policy gradient over the knob space: the *state* is
the normalised delta-metric vector, the *action* is a configuration in
normalised knob space, the *reward* is CDBTune's throughput-delta score
against both the initial and the previous observation. Actor and critic
are numpy MLPs with target networks and a replay buffer.

Properties the paper relies on:

- recommendations are near-constant time (no retraining spike), so RL
  tuners scale to many instances (§1);
- the tuner barely reuses other workloads' experience — it learns its own
  policy per deployment — so corruption from low-quality production
  samples hits "directly from the first hooked database" (Fig. 13).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
import numpy as np

from repro.common.rng import make_rng
from repro.dbsim.knobs import KnobCatalog
from repro.dbsim.metrics import METRIC_NAMES, MetricsDelta
from repro.tuners.base import (
    Recommendation,
    TrainingSample,
    Tuner,
    TuningRequest,
    boost_throttled_knobs,
    vector_to_config,
)
from repro.tuners.neural import MLP, Adam, soft_update

__all__ = ["CDBTuneTuner", "cdbtune_reward"]


def cdbtune_reward(tps: float, tps_initial: float, tps_previous: float) -> float:
    """CDBTune's reward from throughput vs the initial and previous steps.

    ``r > 0`` iff throughput beat the initial observation, scaled by how
    it moved relative to the previous step (Zhang et al. §4.2, throughput
    term only — our objective is single-metric).
    """
    t0 = max(tps_initial, 1e-9)
    tp = max(tps_previous, 1e-9)
    delta_0 = (tps - t0) / t0
    delta_prev = (tps - tp) / tp
    if delta_0 > 0:
        return ((1.0 + delta_0) ** 2 - 1.0) * abs(1.0 + delta_prev)
    return -((1.0 - delta_0) ** 2 - 1.0) * abs(1.0 - delta_prev)


@dataclass
class _Transition:
    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray


class _Normaliser:
    """Running mean/std feature normaliser."""

    def __init__(self, dim: int) -> None:
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.ones(dim)

    def update(self, x: np.ndarray) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def normalise(self, x: np.ndarray) -> np.ndarray:
        std = np.sqrt(self.m2 / max(self.count, 1))
        std = np.where(std > 1e-9, std, 1.0)
        return np.clip((x - self.mean) / std, -5.0, 5.0)


class CDBTuneTuner(Tuner):
    """DDPG-lite tuner.

    Parameters
    ----------
    catalog:
        Knob catalog to tune.
    hidden:
        Hidden-layer width for actor and critic.
    exploration_sigma / exploration_decay:
        Gaussian action-noise schedule (try-and-error behaviour).
    """

    name = "cdbtune"

    def __init__(
        self,
        catalog: KnobCatalog,
        hidden: int = 64,
        gamma: float = 0.9,
        batch_size: int = 32,
        replay_capacity: int = 4096,
        exploration_sigma: float = 0.25,
        exploration_decay: float = 0.995,
        train_steps_per_observe: int = 4,
        memory_limit_mb: float | None = None,
        active_connections: int = 20,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.catalog = catalog
        self.memory_limit_mb = memory_limit_mb
        self.active_connections = active_connections
        self.gamma = gamma
        self.batch_size = batch_size
        self.exploration_sigma = exploration_sigma
        self.exploration_decay = exploration_decay
        self.train_steps_per_observe = train_steps_per_observe
        self._rng = make_rng(seed)
        state_dim = len(METRIC_NAMES)
        action_dim = len(catalog)
        self.actor = MLP([state_dim, hidden, hidden, action_dim], "sigmoid", self._rng)
        self.critic = MLP([state_dim + action_dim, hidden, hidden, 1], "linear", self._rng)
        self.target_actor = MLP([state_dim, hidden, hidden, action_dim], "sigmoid", 1)
        self.target_critic = MLP([state_dim + action_dim, hidden, hidden, 1], "linear", 1)
        self.target_actor.copy_from(self.actor)
        self.target_critic.copy_from(self.critic)
        self._actor_opt = Adam(self.actor.parameters(), lr=1e-3)
        self._critic_opt = Adam(self.critic.parameters(), lr=1e-3)
        self._replay: deque[_Transition] = deque(maxlen=replay_capacity)
        self._normaliser = _Normaliser(state_dim)
        # Per-workload episode bookkeeping.
        self._initial_tps: dict[str, float] = {}
        self._previous_tps: dict[str, float] = {}
        self._pending: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- Tuner interface ---------------------------------------------------------

    def state_from_metrics(self, metrics: MetricsDelta) -> np.ndarray:
        """Normalised state vector from a metrics delta."""
        raw = metrics.as_vector()
        self._normaliser.update(raw)
        return self._normaliser.normalise(raw)

    def observe(self, sample: TrainingSample) -> None:
        """Alias of :meth:`learn` — the RL tuner keeps no sample store."""
        self.learn(sample)

    def learn(self, sample: TrainingSample) -> None:
        """Close the pending transition for the sample's workload and learn."""
        wid = sample.workload_id
        state = self.state_from_metrics(sample.metrics)
        tps = sample.objective
        if wid not in self._initial_tps:
            self._initial_tps[wid] = max(tps, 1e-9)
            self._previous_tps[wid] = max(tps, 1e-9)
        pending = self._pending.pop(wid, None)
        if pending is not None:
            prev_state, action = pending
            reward = cdbtune_reward(
                tps, self._initial_tps[wid], self._previous_tps[wid]
            )
            self._replay.append(_Transition(prev_state, action, reward, state))
            for _ in range(self.train_steps_per_observe):
                self._train_step()
        self._previous_tps[wid] = max(tps, 1e-9)

    def recommend(self, request: TuningRequest) -> Recommendation:
        """Actor output plus exploration noise, registered as pending."""
        state = self.state_from_metrics(request.metrics)
        action = self.actor(state[None, :])[0]
        noise = self._rng.normal(0.0, self.exploration_sigma, size=action.shape)
        self.exploration_sigma *= self.exploration_decay
        action = np.clip(action + noise, 0.0, 1.0)
        self._pending[request.workload_id] = (state, action)
        config = boost_throttled_knobs(
            vector_to_config(action, self.catalog), request
        )
        if self.memory_limit_mb is not None:
            config = config.fitted_to_budget(
                self.memory_limit_mb, self.active_connections
            )
        return Recommendation(
            instance_id=request.instance_id, config=config, source=self.name
        )

    def recommendation_cost_s(self) -> float:
        """RL recommendations are a forward pass: effectively constant."""
        return 1.0

    # -- DDPG internals ------------------------------------------------------------

    def _train_step(self) -> None:
        if len(self._replay) < self.batch_size:
            return
        idx = self._rng.choice(len(self._replay), size=self.batch_size, replace=False)
        batch = [self._replay[i] for i in idx]
        states = np.vstack([t.state for t in batch])
        actions = np.vstack([t.action for t in batch])
        rewards = np.array([t.reward for t in batch])[:, None]
        next_states = np.vstack([t.next_state for t in batch])

        # Critic: TD target from target networks.
        next_actions = self.target_actor(next_states)
        next_q = self.target_critic(np.hstack([next_states, next_actions]))
        target_q = rewards + self.gamma * next_q
        q = self.critic(np.hstack([states, actions]))
        grad_q = (q - target_q) / self.batch_size
        critic_grads, _ = self.critic.backward(grad_q)
        self._critic_opt.step(critic_grads)

        # Actor: ascend dQ/da through the critic.
        policy_actions = self.actor(states)
        q_policy = self.critic(np.hstack([states, policy_actions]))
        ones = np.ones_like(q_policy) / self.batch_size
        _, grad_input = self.critic.backward(-ones)  # maximise Q
        grad_actions = grad_input[:, states.shape[1]:]
        self.actor(states)  # refresh actor cache after critic pass
        actor_grads, _ = self.actor.backward(grad_actions)
        self._actor_opt.step(actor_grads)
        del q_policy  # Q values only needed for the gradient path

        soft_update(self.target_actor, self.actor)
        soft_update(self.target_critic, self.critic)
