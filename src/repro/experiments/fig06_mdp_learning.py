"""Fig. 6 — learning progress and accuracy of the planner MDP.

The paper runs the §3.3 learning automaton on the production workload in
episodes of 350–400 steps: Fig. 6a shows episodic reward rising as
exploration gives way to exploitation, Fig. 6b the average accuracy of
the learning process climbing. Expected shape: both curves trend upward
and plateau.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tde.planner_detector import EpisodeResult, PlannerThrottleDetector
from repro.dbsim.engine import SimulatedDatabase
from repro.workloads.production import ProductionWorkload

__all__ = ["MDPLearningRun", "run"]


@dataclass
class MDPLearningRun:
    """Per-episode summary of the learning experiment."""

    episodes: list[EpisodeResult]

    @property
    def episodic_rewards(self) -> list[float]:
        """Fig. 6a's series."""
        return [e.total_reward for e in self.episodes]

    @property
    def accuracies(self) -> list[float]:
        """Fig. 6b's series."""
        return [e.accuracy for e in self.episodes]

    def cumulative_mean_accuracy(self) -> list[float]:
        """Running average of accuracy (the 'average accuracy' panel)."""
        out: list[float] = []
        total = 0.0
        for i, value in enumerate(self.accuracies, start=1):
            total += value
            out.append(total / i)
        return out


def run(
    n_episodes: int = 8,
    steps_per_episode: int = 375,
    sample_queries: int = 24,
    seed: int = 0,
) -> MDPLearningRun:
    """Run the MDP over production-workload query samples."""
    db = SimulatedDatabase("postgres", "m4.xlarge", 59.0, seed=seed)
    workload = ProductionWorkload(seed=seed + 1)
    # Fine-grained unit steps: an episode's 350–400 actions should span
    # the climb from the live config to the optimum, so exploration
    # efficiency (what the automata learn) is what the reward measures.
    # Slow learning rates so convergence spans multiple episodes (the
    # paper's curves show learning building up over iterations).
    detector = PlannerThrottleDetector.for_database(
        "svc", db, seed=seed + 2, step_fraction=0.012,
        lr_reward=0.04, lr_penalty=0.01,
    )
    # Costs are deterministic (EXPLAIN), so even sub-0.1% gains are real;
    # the threshold must scale with the finer unit step.
    detector.profit_threshold = 0.0005
    episodes = []
    for episode in range(n_episodes):
        # §3.3: "the RL engine captures all the queries in a time frame
        # (typically a day or two)" — each episode sees the query sample
        # of a different stretch of the trace.
        batch = workload.batch(600.0, start_time_s=(8 + episode) * 3600.0)
        db.run(batch)  # bind the planner surface to the production workload
        detector.observe_rows(batch.sampled_queries)
        detector.observe_rows(batch.family_examples)
        queries = detector.reservoir.sample[:sample_queries]
        episodes.append(
            detector.run_episode(db, queries, steps=steps_per_episode)
        )
    return MDPLearningRun(episodes=episodes)
