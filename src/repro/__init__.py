"""repro — a reproduction of AutoDBaaS (EDBT 2021).

An autonomous tuning service for relational database services on PaaS:
a Throttling Detection Engine deciding *when* databases need tuning,
OtterTune-style and CDBTune-style tuner instances behind a load-balanced
config director, and a disruption-aware apply pipeline — all running
against a simulated PostgreSQL/MySQL substrate.

Quick start::

    from repro import AutoDBaaS
    from repro.cloud import Provisioner
    from repro.dbsim import postgres_catalog
    from repro.tuners import OtterTuneTuner, WorkloadRepository
    from repro.workloads import TPCCWorkload

    repo = WorkloadRepository()
    service = AutoDBaaS([OtterTuneTuner(postgres_catalog(), repo)], repo)
    deployment = Provisioner().provision(plan="m4.large", flavor="postgres")
    service.attach(deployment, TPCCWorkload(), policy="tde")
    outcomes = service.step(60.0)
"""

__version__ = "1.0.0"

__all__ = ["AutoDBaaS", "ManagedInstance", "StepOutcome", "__version__"]


def __getattr__(name: str) -> object:
    # The facade loads on first use, so importing ``repro.cli`` runs the
    # CLI's thread-pool defaults before anything has imported numpy.
    if name in __all__:
        from repro.core import service

        return getattr(service, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
