"""Canonical order-stable reducers for sharded fleet execution.

Workers hand back per-member outputs tagged with the member's fleet
index; merging sorts by that index, so the coordinator sees the same
sequence a serial loop over the fleet would have produced no matter how
members were partitioned into shards or which worker finished first.
Metrics registries fold via :meth:`MetricsRegistry.merge` (counters add,
histograms add bucket-wise, gauges last-write-wins in merge order) and
trace fragments splice via :meth:`TraceRecorder.absorb`; both are
documented as order-stable, which is why every merge here happens in
canonical member order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TypeVar

__all__ = ["merge_member_outputs"]

T = TypeVar("T")


def merge_member_outputs(
    shard_outputs: Iterable[Sequence[tuple[int, T]]],
) -> list[tuple[int, T]]:
    """Flatten per-shard ``(member_index, payload)`` lists, member order.

    Raises if two shards report the same member — that is always a
    partitioning bug, and silently keeping one output would make results
    depend on shard iteration order.
    """
    merged: list[tuple[int, T]] = []
    for outputs in shard_outputs:
        merged.extend(outputs)
    merged.sort(key=lambda pair: pair[0])
    for (a, _), (b, _) in zip(merged, merged[1:]):
        if a == b:
            raise ValueError(f"member {a} reported by more than one shard")
    return merged

