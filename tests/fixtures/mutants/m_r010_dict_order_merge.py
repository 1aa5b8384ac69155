# repro-mutant: R010
"""Seeded parity bug: registries merged in dict-iteration order.

A fold of shard metric registries through ``MetricsRegistry.merge`` in
whatever order the ``by_shard`` dict yields them. Metric merge is only
order-stable when every input arrives in canonical shard order; float
histogram sums and first-writer-wins metadata make dict order visible in
the exported Prometheus text. The fixed code iterates
``sorted(by_shard)`` and merges by shard index.
"""

from repro.obs.metrics import MetricsRegistry


def collect_shard_metrics(by_shard):
    out = MetricsRegistry()
    for registry in by_shard.values():  # BUG: insertion/hash order
        out.merge(registry)
    return out
