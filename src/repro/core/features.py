"""The feature bundle: which opt-in tiers a landscape arms.

AutoDBaaS wraps existing tuners behind a config director (§2). Three
opt-in extensions ride on that director, each off by default so every
output stays byte-identical to a build without it:

- ``governor`` — safe online tuning (step-budget bounding,
  canary-on-slave, auto-revert; :mod:`repro.core.director.safety`);
- ``surrogate`` — coreset-GP candidate screening
  (:mod:`repro.tuners.surrogate`);
- ``selection`` — dynamic per-workload knob selection
  (:mod:`repro.tuners.knob_selection`).

One frozen, picklable :class:`Features` value carries all three through
every layer: the facade builds its governor from it, the director offers
it to every tuner instance through :meth:`~repro.tuners.base.Tuner.configure`,
and experiment drivers and their worker tasks take it as one parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.director.safety import SAFETY_METRIC_FAMILIES, GovernorPolicy
from repro.tuners.knob_selection import KNOBSELECT_METRIC_FAMILIES, SelectionPolicy
from repro.tuners.surrogate import SURROGATE_METRIC_FAMILIES, SurrogatePolicy

__all__ = ["FEATURE_METRIC_FAMILIES", "FEATURE_NAMES", "Features"]

#: Names ``--features`` accepts. Only the tuner-side tiers are nameable;
#: the governor is armed in code (the adversarial chaos profile does).
FEATURE_NAMES = ("surrogate", "knob-select")

#: Every feature's metric families (name -> help text), in safety →
#: surrogate → knob-selection order.
FEATURE_METRIC_FAMILIES: dict[str, str] = {
    **SAFETY_METRIC_FAMILIES,
    **SURROGATE_METRIC_FAMILIES,
    **KNOBSELECT_METRIC_FAMILIES,
}


@dataclass(frozen=True)
class Features:
    """The opt-in tiers to arm; ``None`` leaves a tier off."""

    governor: GovernorPolicy | None = None
    surrogate: SurrogatePolicy | None = None
    selection: SelectionPolicy | None = None

    @classmethod
    def parse(cls, value: str) -> Features:
        """The bundle a comma-separated list of :data:`FEATURE_NAMES` arms.

        Each named tier gets its default policy; an empty list arms
        nothing. Raises :class:`ValueError` on an unknown name.
        """
        names = {part.strip() for part in value.split(",") if part.strip()}
        unknown = sorted(names.difference(FEATURE_NAMES))
        if unknown:
            raise ValueError(
                f"unknown feature {unknown[0]!r}; "
                f"pick from {', '.join(FEATURE_NAMES)}"
            )
        return cls(
            surrogate=SurrogatePolicy() if "surrogate" in names else None,
            selection=SelectionPolicy() if "knob-select" in names else None,
        )

    def __bool__(self) -> bool:
        """True when any tier is armed."""
        return any(
            policy is not None
            for policy in (self.governor, self.surrogate, self.selection)
        )
