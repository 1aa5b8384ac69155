"""Deterministic sharded fleet execution.

The paper's headline experiments run over an 80-member fleet; this
package is the engine that fans the per-member work out across
``multiprocessing`` workers without giving up the repo's core invariant:
byte-identical seeded outputs. The pieces:

- :class:`~repro.parallel.executor.FleetExecutor` — partitions fleet
  members into shards, runs each shard either in-process (the
  ``sequential`` backend, the default and fallback) or in a persistent
  worker process (the ``process`` backend), and merges results through
  canonical order-stable reducers. Serial and parallel backends execute
  the *same* member code against the *same* keyed RNG substreams
  (:func:`~repro.common.rng.substream`), so outputs are invariant to
  backend, worker count and shard count by construction.
- :mod:`~repro.parallel.reduce` — the reducers: member outputs re-merged
  in canonical member order, metrics registries folded with
  :meth:`~repro.obs.metrics.MetricsRegistry.merge`, trace fragments
  spliced with :meth:`~repro.obs.trace.TraceRecorder.absorb`.
- :mod:`~repro.parallel.stats` — bytes and per-phase times of every
  step, weighed at the pipe seam.

The pipe is the only channel between coordinator and shards: one
command broadcast per step, and from each shard the replies of the
members with something to send (in fig09, a tuning request or a trace
fragment).

See ``docs/parallelism.md`` for the determinism contract and backend
selection, and ``tests/integration/test_parallel_parity.py`` for the
serial/parallel differential harness that enforces it.
"""

from repro.parallel.executor import (
    FleetExecutor,
    FleetSession,
    WorkerCrashed,
    partition_members,
)
from repro.parallel.reduce import merge_member_outputs
from repro.parallel.stats import SessionStats, StepStats, render_session_stats

__all__ = [
    "FleetExecutor",
    "FleetSession",
    "SessionStats",
    "StepStats",
    "WorkerCrashed",
    "merge_member_outputs",
    "partition_members",
    "render_session_stats",
]
