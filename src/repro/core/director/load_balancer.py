"""Load balancing of tuning requests across tuner instances (§2).

"The config director performs load balancing of recommendation request
tasks across multiple tuner instances." Tuner instances differ hugely in
recommendation cost (a GPR retrain vs an actor forward pass), so the
balancer tracks each instance's outstanding work in estimated seconds and
routes every request to the least-loaded instance.

Instances can be taken *out of rotation* (``healthy = False``) — the
config director's circuit breaker does this for instances whose
deployments keep failing — and :meth:`LeastLoadedBalancer.pick` only ever
considers in-rotation instances, raising the typed
:class:`NoHealthyTuners` error when none remain so the director can fall
back instead of crashing on ``min()`` of an empty sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from repro.tuners.base import Tuner

__all__ = ["NoHealthyTuners", "TunerInstance", "LeastLoadedBalancer"]


class NoHealthyTuners(RuntimeError):
    """Every tuner instance is out of rotation (or excluded)."""


@dataclass
class TunerInstance:
    """One deployed tuner with its load accounting."""

    instance_id: str
    tuner: Tuner
    outstanding_s: float = 0.0
    #: In-rotation flag: the circuit breaker clears it when the instance's
    #: deployment keeps failing and restores it after the cooldown.
    healthy: bool = True


class LeastLoadedBalancer:
    """Routes each request to the tuner instance with least queued work."""

    def __init__(self, instances: list[TunerInstance]) -> None:
        if not instances:
            raise ValueError("need at least one tuner instance")
        ids = [inst.instance_id for inst in instances]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate tuner instance ids")
        self.instances = list(instances)
        self._by_id = {inst.instance_id: inst for inst in self.instances}

    def pick(self, exclude: Collection[str] = ()) -> TunerInstance:
        """The in-rotation instance that would finish a new request soonest.

        Raises :class:`NoHealthyTuners` when every instance is out of
        rotation or excluded — a typed error the director catches to
        serve its last-known-good fallback.
        """
        candidates = [
            inst
            for inst in self.instances
            if inst.healthy and inst.instance_id not in exclude
        ]
        if not candidates:
            raise NoHealthyTuners(
                "no tuner instance in rotation "
                f"({len(self.instances)} registered, "
                f"{sum(inst.healthy for inst in self.instances)} healthy, "
                f"{len(tuple(exclude))} excluded)"
            )
        return min(candidates, key=lambda inst: inst.outstanding_s)

    def drain(self, elapsed_s: float) -> None:
        """Let *elapsed_s* of queued work complete on every instance."""
        if elapsed_s < 0:
            raise ValueError("elapsed_s must be >= 0")
        for instance in self.instances:
            instance.outstanding_s = max(0.0, instance.outstanding_s - elapsed_s)

    # -- rotation management ---------------------------------------------------

    def set_health(self, instance_id: str, healthy: bool) -> None:
        """Move an instance in or out of rotation."""
        self._by_id[instance_id].healthy = healthy
