"""Non-tunable knob policy: buffer-pool sizing at scheduled downtime (§4).

"Non-tunable knobs" cannot change without a database restart, so they are
only adjusted during the pre-announced maintenance window. The canonical
case is the buffer pool, and §4 gives the policy this module implements:

- the optimum comes from the working page set (Curino et al. [5]); when
  the working set fits under the buffer's upper limit, size the buffer to
  it;
- when the working set exceeds the limit, look at the 99th percentile of
  the buffer values recommended since the last downtime: if it is lower
  than the current value **and** at least one entropy hit occurred (the
  tunable knobs are starved for room), reduce the buffer to make room;
  otherwise drift back up towards the average recommended value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.director.config_repository import ConfigRepository
from repro.dbsim.config import BUFFER_SHARE, KnobConfiguration

__all__ = ["DowntimeDecision", "NonTunableKnobPolicy"]


@dataclass(frozen=True)
class DowntimeDecision:
    """The policy's verdict for one downtime window."""

    buffer_knob: str
    old_value_mb: float
    new_value_mb: float
    rule: str


class NonTunableKnobPolicy:
    """§4's scheduled-downtime buffer-pool resizing policy."""

    def __init__(self, config_repository: ConfigRepository) -> None:
        self.configs = config_repository

    def decide(
        self,
        instance_id: str,
        current: KnobConfiguration,
        working_set_mb: float,
        memory_limit_mb: float,
        entropy_hits: int,
        last_downtime_s: float,
    ) -> DowntimeDecision:
        """Choose the buffer value to restart with at this downtime."""
        buffer_name = current.catalog.buffer_pool_name
        knob = current.catalog.get(buffer_name)
        old = current[buffer_name]
        max_limit = BUFFER_SHARE * memory_limit_mb

        if working_set_mb <= max_limit:
            new = knob.clamp(min(working_set_mb, max_limit))
            return DowntimeDecision(buffer_name, old, new, rule="working_set")

        p99 = self.configs.knob_percentile(
            instance_id, buffer_name, 99.0, since_s=last_downtime_s
        )
        if p99 is None:
            new = knob.clamp(min(old, max_limit))
            return DowntimeDecision(buffer_name, old, new, rule="no_history")

        if p99 < old and entropy_hits >= 1:
            # Tunable knobs are starved; shrink the buffer to make room.
            new = knob.clamp(p99)
            return DowntimeDecision(
                buffer_name, old, new, rule="reduce_p99_entropy_hit"
            )

        history = [
            v.config[buffer_name]
            for v in self.configs.history(instance_id)
            if v.timestamp_s >= last_downtime_s
        ]
        average = float(np.mean(history)) if history else old
        new = knob.clamp(min(max(average, old), max_limit))
        return DowntimeDecision(
            buffer_name, old, new, rule="increase_toward_average"
        )
