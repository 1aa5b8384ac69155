"""DFA adapters: per-DBMS connectors used to apply configurations.

"The DFA has multiple adapter implementations to get connected to various
kinds of database services" (§2). An adapter knows how to push a
configuration to one node of one DBMS flavor via the chosen apply method,
and reports crashes instead of raising, so the DFA's slave-first protocol
can react.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.dbsim.config import KnobConfiguration
from repro.dbsim.engine import DatabaseCrashed, SimulatedDatabase

__all__ = ["NodeApplyResult", "DatabaseAdapter", "PostgresAdapter", "MySQLAdapter", "adapter_for"]


@dataclass(frozen=True)
class NodeApplyResult:
    """Outcome of applying a config to one node."""

    ok: bool
    crashed: bool
    skipped_restart_required: tuple[str, ...]
    error: str = ""


class DatabaseAdapter(abc.ABC):
    """Connector for one DBMS flavor."""

    flavor: str

    def apply(
        self,
        node: SimulatedDatabase,
        config: KnobConfiguration,
        mode: str = "reload",
    ) -> NodeApplyResult:
        """Apply *config* to *node*; never raises on crash."""
        if node.flavor != self.flavor:
            raise ValueError(
                f"{type(self).__name__} cannot drive a {node.flavor!r} node"
            )
        try:
            outcome = node.apply_config(config, mode=mode)
        except DatabaseCrashed as exc:
            return NodeApplyResult(
                ok=False, crashed=True, skipped_restart_required=(), error=str(exc)
            )
        return NodeApplyResult(
            ok=True,
            crashed=False,
            skipped_restart_required=tuple(outcome.skipped_restart_required),
        )


class PostgresAdapter(DatabaseAdapter):
    """Adapter for PostgreSQL-flavoured nodes (SIGHUP reload semantics)."""

    flavor = "postgres"


class MySQLAdapter(DatabaseAdapter):
    """Adapter for MySQL-flavoured nodes (SET GLOBAL reload semantics)."""

    flavor = "mysql"


def adapter_for(flavor: str) -> DatabaseAdapter:
    """Adapter instance for *flavor*."""
    if flavor == "postgres":
        return PostgresAdapter()
    if flavor == "mysql":
        return MySQLAdapter()
    raise ValueError(f"no adapter for DBMS flavor {flavor!r}")
