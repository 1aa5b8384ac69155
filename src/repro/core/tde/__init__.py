"""Throttling Detection Engine: the paper's §3 contribution."""

from repro.core.tde.bgwriter_detector import (
    BgwriterThrottleDetector,
    checkpoint_latency_ratio,
)
from repro.core.tde.engine import TDEReport, ThrottlingDetectionEngine
from repro.core.tde.entropy import (
    QUERY_CLASSES,
    EntropyFilter,
    QueryClassHistogram,
    normalized_entropy,
)
from repro.core.tde.mdp import LearningAutomaton
from repro.core.tde.memory_detector import MemoryDetectionReport, MemoryThrottleDetector
from repro.core.tde.planner_detector import EpisodeResult, PlannerThrottleDetector
from repro.core.tde.throttle import PlanUpgradeRequest, Throttle, ThrottleLog

__all__ = [
    "BgwriterThrottleDetector",
    "EntropyFilter",
    "EpisodeResult",
    "LearningAutomaton",
    "MemoryDetectionReport",
    "MemoryThrottleDetector",
    "PlanUpgradeRequest",
    "PlannerThrottleDetector",
    "QUERY_CLASSES",
    "QueryClassHistogram",
    "TDEReport",
    "Throttle",
    "ThrottleLog",
    "ThrottlingDetectionEngine",
    "checkpoint_latency_ratio",
    "normalized_entropy",
]
