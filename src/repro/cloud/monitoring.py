"""External monitoring agent — the paper's Dynatrace stand-in.

§3.2 monitors disk latency "from external monitoring agents such as
Dynatrace". :class:`MonitoringAgent` accumulates the disk latency / IOPS
series emitted by one database's execution windows, and the TDE reads
each window through it (:meth:`MonitoringAgent.filter_result`).
"""

from __future__ import annotations

from repro.common.timeseries import TimeSeries
from repro.dbsim.engine import ExecutionResult

__all__ = ["MonitoringAgent"]


class MonitoringAgent:
    """Accumulates per-instance disk telemetry across execution windows.

    Parameters
    ----------
    instance_id:
        Database instance the telemetry belongs to.
    retention_s:
        If set, per-second disk series older than this (relative to the
        newest ingested window) are dropped — what a real monitoring
        backend's retention policy does. Detector queries only ever look
        a few windows back; a day-long fleet simulation would otherwise
        hold tens of millions of unread samples. ``None`` retains
        everything.
    """

    def __init__(
        self, instance_id: str = "db0", retention_s: float | None = None
    ) -> None:
        self.instance_id = instance_id
        self.retention_s = retention_s
        self.write_latency = TimeSeries("data.write_latency_ms", "ms")
        self.read_latency = TimeSeries("data.read_latency_ms", "ms")
        self.iops = TimeSeries("data.iops", "ops/s")
        self.throughput = TimeSeries("db.throughput_tps", "tps")

    def ingest(self, result: ExecutionResult) -> None:
        """Record the telemetry of one executed window."""
        self.write_latency.extend_series(result.data_disk.write_latency)
        self.read_latency.extend_series(result.data_disk.read_latency)
        self.iops.extend_series(result.data_disk.iops)
        self.throughput.append(result.start_time_s, result.throughput)
        if self.retention_s is not None:
            horizon = result.start_time_s + result.duration_s - self.retention_s
            self.write_latency.drop_before(horizon)
            self.read_latency.drop_before(horizon)
            self.iops.drop_before(horizon)

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
