"""Columnar multi-member window stepping for fleet-scale experiments.

:class:`MemberBatch` steps *many* :class:`~repro.dbsim.engine.SimulatedDatabase`
instances through one window with the engine's columnar window step,
:func:`~repro.dbsim.engine.step_members`, instead of a Python loop over
members. The step evaluates traffic and both disks on ``(members,
seconds)`` matrices; only the parts that are inherently per-member stay
per-member — RNG jitter draws (each member owns a keyed substream whose
draw order is a frozen contract), batch costing from the window's spill
report, EXPLAIN sampling and metric assembly.

Bit-identical output to ``[db.run(batch) for db, batch in ...]`` is the
hard invariant, kept by three rules:

1. **Same float expressions, same order.** Every vectorized statement
   mirrors the per-member arithmetic element-for-element: IEEE-754
   double ops are identical whether issued on scalars or elementwise on
   arrays, and accumulators are updated in the same sequence. Reductions
   (per-member means/sums) run over contiguous rows, where numpy's
   pairwise summation matches the 1-D case.
2. **Per-member RNG streams.** Members never share a generator, so
   phase-reordering work *across* members (generate all batches, then
   step all members) consumes every stream in exactly the order the
   serial loop would.
3. **One step, one write-back kernel.** ``db.run`` is the same step on
   a chunk of one, and exceptional windows are columns of that step:
   restart stalls zero a prefix of the traffic rows, cold caches scale
   the hit-ratio column, disk degradation is a per-member latency factor,
   members with a deviating window length form their own chunk, and a
   crashed member ends the step after the members before it. The
   write-back recurrence runs per member through the event-driven kernel
   ``WriteBackScheduler.run_window`` at every chunk width; a property
   suite checks it against the per-second definition.

Scalars that land in result objects are converted to Python floats —
``repr`` parity with the serial loop requires no ``np.float64`` leaks.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.dbsim.engine import ExecutionResult, SimulatedDatabase, step_members
from repro.workloads.generator import WorkloadBatch

__all__ = ["MemberBatch"]


class MemberBatch:
    """Columnar window stepper over a fixed roster of databases.

    Parameters
    ----------
    databases:
        The member databases in canonical member order. The roster is
        fixed for the lifetime of the batch.
    """

    def __init__(self, databases: Sequence[SimulatedDatabase]) -> None:
        self._dbs = list(databases)

    def step_window(
        self, batches: Sequence[WorkloadBatch]
    ) -> list[ExecutionResult]:
        """Step every member through its batch; results in member order.

        Equivalent to ``[db.run(b) for db, b in zip(databases, batches)]``
        bit-for-bit, including which exception is raised when a member is
        down.
        """
        if len(batches) != len(self._dbs):
            raise ValueError("one batch per member required")
        return step_members(self._dbs, batches)
