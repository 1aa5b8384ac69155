#!/usr/bin/env python3
"""Quickstart: put one database under AutoDBaaS management.

Provisions a PostgreSQL-flavoured service on an m4.large, attaches a
TPC-C-style tenant with the TDE policy, and steps through a few monitoring
windows. Watch the TDE raise throttles, the config director route tuning
requests, and the apply pipeline reload the recommended knobs — then see
the scheduled downtime fix the non-tunable buffer pool.

Run:  python examples/quickstart.py
"""

from repro import AutoDBaaS
from repro.cloud import Provisioner
from repro.dbsim import postgres_catalog
from repro.tuners import OtterTuneTuner, WorkloadRepository
from repro.workloads import TPCCWorkload


def main() -> None:
    catalog = postgres_catalog()
    repository = WorkloadRepository()
    tuner = OtterTuneTuner(
        catalog, repository, memory_limit_mb=6553.6, seed=1
    )
    service = AutoDBaaS(
        [tuner],
        repository,
        window_s=300.0,          # 5-minute monitoring windows
        downtime_period_s=3600.0  # hourly maintenance downtime (demo!)
    )

    provisioner = Provisioner(seed=2)
    deployment = provisioner.provision(
        plan="m4.large", flavor="postgres", data_size_gb=26.0, replicas=1
    )
    service.attach(deployment, TPCCWorkload(seed=3), policy="tde")
    master = deployment.service.master

    print(f"managing {deployment.instance_id} on {deployment.plan}")
    print(f"initial shared_buffers: {master.config['shared_buffers']:.0f} MB\n")

    for window in range(16):
        outcome = service.step()[0]
        throttles = (
            len(outcome.tde_report.throttles) if outcome.tde_report else 0
        )
        line = (
            f"window {window:2d}  tps {outcome.result.throughput:7.0f}"
            f"  throttles {throttles}"
        )
        if outcome.tuning_requested and outcome.apply_report:
            line += (
                f"  -> tuned via {outcome.split.recommendation.source}"
                f" (applied={outcome.apply_report.applied})"
            )
        if outcome.downtime_taken:
            line += (
                "  [scheduled downtime: shared_buffers ->"
                f" {master.config['shared_buffers']:.0f} MB]"
            )
        print(line)

    counts = service.throttle_counts()[deployment.instance_id]
    print(f"\nthrottles by class: {counts}")
    print(f"tuning requests issued: {service.director.total_requests}")
    print(f"samples in the shared repository: {repository.total_samples()}")


if __name__ == "__main__":
    main()
