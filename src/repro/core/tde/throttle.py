"""Throttle events — the TDE's output and the paper's evaluation metric.

A :class:`Throttle` says "this database's performance is currently limited
by incorrectly configured knobs of this class". Throttles are what trigger
tuning requests (replacing periodic polling), and *counting* them is the
paper's production-safe performance metric (§1, §5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dbsim.knobs import KnobClass

__all__ = ["Throttle", "PlanUpgradeRequest"]


@dataclass(frozen=True)
class Throttle:
    """One detected performance throttle.

    Attributes
    ----------
    instance_id / workload_id:
        Which database, running what.
    knob_class:
        The §3 class the throttle blames.
    knobs:
        Specific knob names implicated (e.g. ``("work_mem",)``).
    reason:
        Human-readable evidence ("plan for template X spills sort to disk").
    time_s:
        Simulated detection time.
    requires_restart:
        True for non-tunable knobs (buffer pool) that can only change at
        scheduled downtime.
    """

    instance_id: str
    workload_id: str
    knob_class: KnobClass
    knobs: tuple[str, ...]
    reason: str
    time_s: float
    requires_restart: bool = False


@dataclass(frozen=True)
class PlanUpgradeRequest:
    """Escalation instead of a throttle: the VM itself is undersized (§3.1).

    Raised when the entropy filter concludes further tuning cannot stop
    the throttles (knobs at their caps, query classes evenly spread) and
    the customer should move to a bigger plan.
    """

    instance_id: str
    reason: str
    time_s: float
    entropy: float
