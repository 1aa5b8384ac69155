"""Async/planner throttle detection via the learning automaton (§3.3).

Every trigger interval (2–4 minutes in the paper) the detector:

1. reservoir-samples queries from the streaming log;
2. for each async/planner knob, lets that knob's automaton pick an
   increase/decrease action and evaluates the planner's cost/benefit for
   the hypothetical knob value (EXPLAIN under a what-if config — the live
   knobs are not touched);
3. a profit beyond the threshold rewards the action **and raises a
   throttle** (the tuner should be consulted — the optimum shifts with the
   workload and the tuner has cross-system experience, §3.3's closing
   argument); a loss penalises the action.

:meth:`run_episode` drives the same machinery for 350–400 consecutive
steps against a fixed query sample, producing the learning-progress and
accuracy curves of Fig. 6.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.common.rng import derive_rng, make_rng
from repro.core.tde.mdp import LearningAutomaton
from repro.core.tde.throttle import Throttle
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.engine import ExecutionResult, SimulatedDatabase
from repro.dbsim.knobs import KnobClass
from repro.workloads.query import Query, QueryRows
from repro.workloads.sampling import ReservoirSampler

__all__ = ["EpisodeResult", "PlannerThrottleDetector"]

#: Relative planner-cost reduction that counts as profit.
_PROFIT_THRESHOLD = 0.005


@dataclass
class EpisodeResult:
    """Summary of one RL episode (Fig. 6 material)."""

    total_reward: float = 0.0
    steps: int = 0
    rewarded_steps: int = 0
    reward_curve: list[float] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        """Fraction of steps whose action produced a profit."""
        return self.rewarded_steps / self.steps if self.steps else 0.0


class PlannerThrottleDetector:
    """One learning automaton per async/planner knob."""

    def __init__(
        self,
        instance_id: str,
        catalog_knobs: list,
        reservoir_capacity: int = 48,
        profit_threshold: float = _PROFIT_THRESHOLD,
        step_fraction: float = 0.06,
        lr_reward: float = 0.2,
        lr_penalty: float = 0.06,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.instance_id = instance_id
        self.profit_threshold = profit_threshold
        rng = make_rng(seed)
        self.automata = {
            knob.name: LearningAutomaton(
                knob,
                step_fraction=step_fraction,
                lr_reward=lr_reward,
                lr_penalty=lr_penalty,
                seed=derive_rng(rng, knob.name),
            )
            for knob in catalog_knobs
        }
        if not self.automata:
            raise ValueError("no async/planner knobs to supervise")
        # Like the memory detector, probe over *distinct templates*: a
        # frequency-weighted sample of an insert-dominated log would
        # spend the whole cost/benefit budget on statements whose plans do
        # not respond to planner knobs at all.
        self.reservoir: ReservoirSampler[Query] = ReservoirSampler(
            reservoir_capacity, seed=derive_rng(rng, "reservoir")
        )
        self._seen_templates: set[str] = set()

    @staticmethod
    def for_database(
        instance_id: str,
        db: SimulatedDatabase,
        seed: int = 0,
        step_fraction: float = 0.06,
        lr_reward: float = 0.2,
        lr_penalty: float = 0.06,
    ) -> "PlannerThrottleDetector":
        """Detector over *db*'s async/planner knob class."""
        knobs = db.catalog.by_class(KnobClass.ASYNC_PLANNER)
        return PlannerThrottleDetector(
            instance_id,
            knobs,
            step_fraction=step_fraction,
            lr_reward=lr_reward,
            lr_penalty=lr_penalty,
            seed=seed,
        )

    def _mean_cost(
        self, db: SimulatedDatabase, queries: list[Query], config: KnobConfiguration
    ) -> float:
        plans = db.explain_many(queries, config)
        return float(np.mean([p.total_cost for p in plans])) if plans else 0.0

    def probe(
        self, db: SimulatedDatabase, queries: list[Query]
    ) -> list[tuple[str, float]]:
        """One automaton step per knob; returns ``(knob, profit)`` pairs.

        Profit is the relative planner-cost reduction of the automaton's
        chosen perturbation; only entries above the threshold are
        returned (they are what triggers a throttle).
        """
        if not queries:
            return []
        profitable: list[tuple[str, float]] = []
        base_cost = self._mean_cost(db, queries, db.config)
        if base_cost <= 0:
            return []
        for name, automaton in self.automata.items():
            action = automaton.choose_action()
            old_value = db.config[name]
            new_value = automaton.next_value(old_value, action)
            if new_value == old_value:
                # At a cap; the move is a no-op — penalise to push back.
                automaton.update(action, rewarded=False)
                automaton.record(action, old_value, new_value, 0.0, False)
                continue
            candidate = db.config.with_values({name: new_value})
            new_cost = self._mean_cost(db, queries, candidate)
            profit = (base_cost - new_cost) / base_cost
            rewarded = profit > self.profit_threshold
            automaton.update(action, rewarded)
            automaton.record(action, old_value, new_value, profit, rewarded)
            if rewarded:
                profitable.append((name, profit))
        return profitable

    def observe_rows(self, rows: QueryRows) -> None:
        """Feed log rows; a template enters the reservoir at its first row.

        Only that row is built into a :class:`Query`.
        """
        for family, first, _last in rows.appearances():
            template = rows.families[family].log_template
            if template not in self._seen_templates:
                self._seen_templates.add(template)
                self.reservoir.observe(rows[first])

    def inspect(
        self, db: SimulatedDatabase, result: ExecutionResult
    ) -> list[Throttle]:
        """Run one trigger round over the window's query-log sample."""
        self.observe_rows(result.batch.sampled_queries)
        self.observe_rows(result.batch.family_examples)
        profitable = self.probe(db, self.reservoir.sample)
        if not profitable:
            return []
        knobs = tuple(sorted(name for name, _ in profitable))
        best = max(profit for _, profit in profitable)
        return [
            Throttle(
                instance_id=self.instance_id,
                workload_id=result.batch.workload_name,
                knob_class=KnobClass.ASYNC_PLANNER,
                knobs=knobs,
                reason=(
                    f"planner cost/benefit probe found {best:.1%} profit "
                    f"on knobs {', '.join(knobs)}"
                ),
                time_s=result.start_time_s + result.duration_s,
            )
        ]

    def run_episode(
        self,
        db: SimulatedDatabase,
        queries: Sequence[Query],
        steps: int = 375,
    ) -> EpisodeResult:
        """Run one 350–400-step episode against a fixed query sample.

        The hypothetical configuration *trajectory* starts at the live
        config and follows the automata's actions; the live database is
        never modified. Rewards are the per-step profits; the reward
        curve is cumulative, which is what Fig. 6a plots per episode.
        """
        queries = list(queries)
        if not queries:
            raise ValueError("episode needs a non-empty query sample")
        result = EpisodeResult()
        config = db.config
        names = list(self.automata)
        cost = self._mean_cost(db, queries, config)
        best_cost = cost
        # A knob whose probes fail this many times in a row is parked for
        # the rest of the episode: the automaton stops paying penalties on
        # a (locally) converged knob, which both preserves its learned
        # action probabilities and makes episodes reward exploration
        # efficiency — an undertrained automaton parks knobs prematurely.
        park_after = 3
        consecutive_fails = {name: 0 for name in names}
        for step in range(steps):
            active = [n for n in names if consecutive_fails[n] < park_after]
            if not active:
                result.reward_curve.extend(
                    [result.total_reward] * (steps - step)
                )
                break
            name = active[step % len(active)]
            automaton = self.automata[name]
            action = automaton.choose_action()
            new_value = automaton.next_value(config[name], action)
            candidate = config.with_values({name: new_value})
            new_cost = self._mean_cost(db, queries, candidate)
            profit = (cost - new_cost) / cost if cost > 0 else 0.0
            # Hysteresis: only a strict improvement over the episode's
            # best cost counts — oscillating around the optimum (lose a
            # step, win it back) must not register as endless progress.
            improvement = (
                (best_cost - new_cost) / best_cost if best_cost > 0 else 0.0
            )
            rewarded = improvement > self.profit_threshold
            automaton.update(action, rewarded)
            automaton.record(action, config[name], new_value, profit, rewarded)
            result.steps += 1
            if rewarded:
                # Hill-climbing state transition: the MDP moves to the new
                # knob value only when the environment paid off; a losing
                # probe stays put (its cost was hypothetical — EXPLAIN,
                # not execution) and only adjusts the action probability.
                result.rewarded_steps += 1
                result.total_reward += profit
                config = candidate
                cost = new_cost
                best_cost = min(best_cost, new_cost)
                consecutive_fails[name] = 0
            else:
                # "The cost benefit estimates are then converted to
                # rewards or penalties" — a losing probe is a penalty, so
                # episodes reward policies that probe the right direction.
                result.total_reward -= abs(min(profit, 0.0))
                consecutive_fails[name] += 1
            result.reward_curve.append(result.total_reward)
        return result
