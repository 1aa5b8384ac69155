"""Builtin lint rules. Importing this package registers R001–R003 and R005–R007."""

from repro.analysis.rules.knob_registry import KnobRegistryRule
from repro.analysis.rules.observability import RecorderMustThreadRule
from repro.analysis.rules.rng import NoGlobalRngRule, RngMustThreadRule
from repro.analysis.rules.robustness import BoundedControlPlaneRule
from repro.analysis.rules.wallclock import NoWallclockInSimRule

__all__ = [
    "BoundedControlPlaneRule",
    "KnobRegistryRule",
    "NoGlobalRngRule",
    "NoWallclockInSimRule",
    "RecorderMustThreadRule",
    "RngMustThreadRule",
]
