"""Experiment harnesses reproducing every table and figure of §3–§5.

One module per figure (or pair of figures sharing a protocol), each with a
``run()`` returning plain data structures the benchmark suite prints and
checks. See DESIGN.md's experiment index for the full mapping.
"""

from repro.experiments import (
    ablation_hybrid,
    ablations,
    chaos_recovery,
    fig02_memory_table,
    fig03_04_entropy,
    fig05_disk_latency,
    fig06_mdp_learning,
    fig07_reload_iops,
    fig08_arrival_rate,
    fig09_requests_per_minute,
    fig10_11_throttles,
    fig12_13_throughput,
    fig14_workload_shift,
    fig15_accuracy,
)
from repro.experiments.common import format_table, offline_session, offline_train

__all__ = [
    "ablation_hybrid",
    "ablations",
    "chaos_recovery",
    "fig02_memory_table",
    "fig03_04_entropy",
    "fig05_disk_latency",
    "fig06_mdp_learning",
    "fig07_reload_iops",
    "fig08_arrival_rate",
    "fig09_requests_per_minute",
    "fig10_11_throttles",
    "fig12_13_throughput",
    "fig14_workload_shift",
    "fig15_accuracy",
    "format_table",
    "offline_session",
    "offline_train",
]
