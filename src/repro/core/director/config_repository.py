"""Config data repository: versioned per-instance configuration history.

The config director stores every recommendation it forwards (§2: "while
simultaneously storing it into the config data repository"). The history
also backs the §4 non-tunable-knob policy, which needs "the 99th
percentile of this knob obtained during all last recommendations before
the last scheduled downtime".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.stats import percentile
from repro.dbsim.config import KnobConfiguration

__all__ = ["ConfigVersion", "ConfigRepository"]


@dataclass(frozen=True)
class ConfigVersion:
    """One stored configuration version."""

    instance_id: str
    config: KnobConfiguration
    source: str
    timestamp_s: float
    version: int


class ConfigRepository:
    """Append-only config history per service instance."""

    def __init__(self) -> None:
        self._history: dict[str, list[ConfigVersion]] = {}

    def store(
        self,
        instance_id: str,
        config: KnobConfiguration,
        source: str,
        timestamp_s: float,
    ) -> ConfigVersion:
        """Append a new version for *instance_id*."""
        versions = self._history.setdefault(instance_id, [])
        entry = ConfigVersion(
            instance_id=instance_id,
            config=config,
            source=source,
            timestamp_s=timestamp_s,
            version=len(versions) + 1,
        )
        versions.append(entry)
        return entry

    def history(self, instance_id: str) -> list[ConfigVersion]:
        """Full version history (oldest first)."""
        return list(self._history.get(instance_id, []))

    def knob_percentile(
        self,
        instance_id: str,
        knob_name: str,
        q: float,
        since_s: float = 0.0,
    ) -> float | None:
        """Percentile of *knob_name* over versions since *since_s*.

        ``None`` when no versions qualify — callers must handle the
        no-history case explicitly (§4's downtime policy falls back to
        keeping the current value).
        """
        values = [
            v.config[knob_name]
            for v in self._history.get(instance_id, [])
            if v.timestamp_s >= since_s
        ]
        if not values:
            return None
        return percentile(values, q)
