"""Applying recommendations: adapters, DFA, orchestrator, reconciler (§4)."""

from repro.core.apply.adapters import (
    DatabaseAdapter,
    MySQLAdapter,
    NodeApplyResult,
    PostgresAdapter,
    adapter_for,
)
from repro.core.apply.dfa import ApplyReport, CanaryContext, DataFederationAgent
from repro.core.apply.nontunable import DowntimeDecision, NonTunableKnobPolicy
from repro.core.apply.orchestrator import (
    AlreadyRegistered,
    DowntimeWindow,
    ServiceOrchestrator,
)
from repro.core.apply.reconciler import (
    ConfigIncidentLog,
    ReconcileAction,
    Reconciler,
)
from repro.core.apply.restart import PeriodicReloadDriver

__all__ = [
    "AlreadyRegistered",
    "ApplyReport",
    "CanaryContext",
    "ConfigIncidentLog",
    "DataFederationAgent",
    "DatabaseAdapter",
    "DowntimeDecision",
    "DowntimeWindow",
    "MySQLAdapter",
    "NodeApplyResult",
    "NonTunableKnobPolicy",
    "PeriodicReloadDriver",
    "PostgresAdapter",
    "ReconcileAction",
    "Reconciler",
    "ServiceOrchestrator",
    "adapter_for",
]
