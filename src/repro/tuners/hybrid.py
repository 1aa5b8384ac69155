"""Hybrid tuner — §2.1's "can even be a hybrid combination".

Combines the two families' strengths: the RL tuner answers most requests
(recommendations are a forward pass, so the instance scales), while every
``bo_every``-th request for a workload goes to the BO tuner, whose
experience-backed recommendation re-anchors the configuration. Both
members observe every sample, so the BO surrogate and the RL policy train
from the same stream.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.dbsim.knobs import KnobCatalog
from repro.tuners.base import Recommendation, TrainingSample, Tuner, TuningRequest
from repro.tuners.cdbtune import CDBTuneTuner
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.repository import WorkloadRepository

if TYPE_CHECKING:
    from repro.core.features import Features

__all__ = ["HybridTuner"]


class HybridTuner(Tuner):
    """RL-fast, BO-anchored hybrid.

    Parameters
    ----------
    catalog / repository / memory_limit_mb / seed:
        Forwarded to the member tuners.
    bo_every:
        Every n-th request per workload is answered by the BO member
        (n = 1 degenerates to pure BO, a large n to pure RL).
    """

    name = "hybrid"

    def __init__(
        self,
        catalog: KnobCatalog,
        repository: WorkloadRepository | None = None,
        bo_every: int = 4,
        memory_limit_mb: float | None = None,
        seed: int = 0,
    ) -> None:
        if bo_every < 1:
            raise ValueError("bo_every must be >= 1")
        self.catalog = catalog
        self.bo_every = bo_every
        self.repository = repository if repository is not None else WorkloadRepository()
        self.bo = OtterTuneTuner(
            catalog,
            self.repository,
            memory_limit_mb=memory_limit_mb,
            seed=seed,
        )
        self.rl = CDBTuneTuner(
            catalog, memory_limit_mb=memory_limit_mb, seed=seed + 1
        )
        self._request_counts: dict[str, int] = defaultdict(int)

    def configure(self, features: Features) -> None:
        """Offer *features* to the BO member.

        The BO member adopts the screen and selection. The RL member
        adopts neither: DDPG's recommendation is one actor forward pass,
        with no candidate set to screen or project.
        """
        self.bo.configure(features)

    def observe(self, sample: TrainingSample) -> None:
        """Store once (via the BO member's repository) and learn."""
        self.bo.observe(sample)
        self.rl.learn(sample)

    def learn(self, sample: TrainingSample) -> None:
        """Stream-learn without storing (the facade stores separately)."""
        self.rl.learn(sample)

    def recommend(self, request: TuningRequest) -> Recommendation:
        """Route to BO every n-th request per workload, RL otherwise."""
        count = self._request_counts[request.workload_id]
        self._request_counts[request.workload_id] = count + 1
        member: Tuner = self.bo if count % self.bo_every == 0 else self.rl
        recommendation = member.recommend(request)
        recommendation.source = f"{self.name}/{member.name}"
        return recommendation

    def recommendation_cost_s(self) -> float:
        """Amortised cost: one BO retrain per ``bo_every`` requests."""
        return (
            self.bo.recommendation_cost_s()
            + (self.bo_every - 1) * self.rl.recommendation_cost_s()
        ) / self.bo_every
