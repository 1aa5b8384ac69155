"""Columnar multi-member window stepping for fleet-scale experiments.

:class:`MemberBatch` steps *many* :class:`~repro.dbsim.engine.SimulatedDatabase`
instances through one window with the engine's columnar window step,
:func:`~repro.dbsim.engine.step_members`, instead of a Python loop over
members. The step evaluates traffic and both disks on ``(members,
seconds)`` matrices; only the parts that are inherently per-member stay
per-member — RNG jitter draws (each member owns a keyed substream whose
draw order is a frozen contract), batch costing through the per-database
service-time memo, EXPLAIN sampling and metric assembly.

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
3. **One kernel, two write-back lanes.** ``db.run`` is the same step on a
   chunk of one, and exceptional windows are columns of that step:
   restart stalls zero a prefix of the traffic rows, cold caches scale
   the hit-ratio column, disk degradation is a per-member latency factor,
   members with a deviating window length form their own chunk, and a
   crashed member ends the step after the members before it. Only the
   per-second write-back recurrence is forked by chunk width: narrow
   chunks run ``WriteBackScheduler.run_window`` per member, wide ones the
   vectorised :func:`~repro.dbsim.bgwriter.run_windows`, and a property
   suite checks the two lanes against each other.

Scalars that land in result objects are converted to Python floats —
``repr`` parity between the lanes requires no ``np.float64`` leaks.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.dbsim.engine import (
    ConfigTerms,
    ExecutionResult,
    SimulatedDatabase,
    step_members,
)
from repro.workloads.generator import WorkloadBatch

__all__ = ["MemberBatch"]


class MemberBatch:
    """Columnar window stepper over a fixed roster of databases.

    Parameters
    ----------
    databases:
        The member databases in canonical member order. The roster is
        fixed for the lifetime of the batch; each member's
        :class:`~repro.dbsim.engine.ConfigTerms` (write-back parameters,
        hit ratio, swap factor) are cached and refreshed when that
        member's ``config_epoch`` moves.
    """

    def __init__(self, databases: Sequence[SimulatedDatabase]) -> None:
        self._dbs = list(databases)
        self._epochs = [-1] * len(self._dbs)
        self._terms: list[ConfigTerms] = [None] * len(self._dbs)  # type: ignore[list-item]

    def __len__(self) -> int:
        return len(self._dbs)

    def step_window(
        self, batches: Sequence[WorkloadBatch]
    ) -> list[ExecutionResult]:
        """Step every member through its batch; results in member order.

        Equivalent to ``[db.run(b) for db, b in zip(databases, batches)]``
        bit-for-bit, including which exception is raised when a member is
        down.
        """
        dbs = self._dbs
        if len(batches) != len(dbs):
            raise ValueError("one batch per member required")
        for m, db in enumerate(dbs):
            if db.config_epoch != self._epochs[m]:
                self._terms[m] = ConfigTerms.of(db)
                self._epochs[m] = db.config_epoch
        return step_members(dbs, batches, self._terms)
