"""External monitoring agent — the paper's Dynatrace stand-in.

§3.2 monitors disk latency "from external monitoring agents such as
Dynatrace". :class:`MonitoringAgent` is the §2 ingestion and filter
seam between one database's execution windows and its observers: every
executed window passes through :meth:`MonitoringAgent.ingest`, and the
TDE reads each window through :meth:`MonitoringAgent.filter_result`.
The agent keeps no per-second series: each window's disk series already
travel on the :class:`~repro.dbsim.engine.ExecutionResult`, and nothing
reads a copy of them back.
"""

from __future__ import annotations

from repro.dbsim.engine import ExecutionResult

__all__ = ["MonitoringAgent"]


class MonitoringAgent:
    """The monitoring pipeline of one database instance.

    Parameters
    ----------
    instance_id:
        Database instance the telemetry belongs to.
    """

    def __init__(self, instance_id: str = "db0") -> None:
        self.instance_id = instance_id

    def ingest(self, result: ExecutionResult) -> None:
        """Deliver one executed window to the monitoring pipeline.

        A healthy pipeline stores nothing. Agents whose pipeline can drop
        windows (see :class:`repro.faults.injectors.FaultyMonitoringAgent`)
        consult their fault schedule here.
        """
        del result

    def filter_result(self, result: ExecutionResult) -> ExecutionResult:
        """The window's observables as the monitoring pipeline saw them.

        The TDE reads each window *through* monitoring, not straight off
        the database (§2's Dynatrace integration). A healthy agent passes
        the result through unchanged; agents whose pipeline drops windows
        (see :class:`repro.faults.injectors.FaultyMonitoringAgent`) return
        a telemetry-stripped view instead, which is what puts detectors
        into degraded mode.
        """
        return result
