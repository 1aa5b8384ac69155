"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dbsim import SimulatedDatabase, mysql_catalog, postgres_catalog
from repro.tuners import TrainingSample, WorkloadRepository, vector_to_config
from repro.workloads import TPCCWorkload, WorkloadGenerator, YCSBWorkload
from repro.workloads.query import QueryFamily


class MixWorkload(WorkloadGenerator):
    """A workload assembled from an explicit family list."""

    def __init__(
        self,
        name: str,
        families: list[QueryFamily],
        rps: float,
        data_size_gb: float,
        seed: int = 0,
        sample_size: int = 200,
    ) -> None:
        self._families_spec = list(families)
        super().__init__(name, rps, data_size_gb, seed=seed, sample_size=sample_size)

    def _build_families(self) -> list[QueryFamily]:
        return list(self._families_spec)


@pytest.fixture
def pg_catalog():
    return postgres_catalog()


@pytest.fixture
def my_catalog():
    return mysql_catalog()


@pytest.fixture
def pg_db():
    """PostgreSQL-flavoured instance on m4.large with 26 GB of data."""
    return SimulatedDatabase("postgres", "m4.large", data_size_gb=26.0, seed=7)


@pytest.fixture
def my_db():
    """MySQL-flavoured instance on m4.large with 26 GB of data."""
    return SimulatedDatabase("mysql", "m4.large", data_size_gb=26.0, seed=7)


@pytest.fixture
def tpcc():
    return TPCCWorkload(seed=11)


@pytest.fixture
def ycsb():
    return YCSBWorkload(seed=11)


def make_samples(
    catalog,
    workload_id: str = "tpcc",
    n: int = 12,
    seed: int = 0,
    vm: str = "m4.large",
    data_size_gb: float = 26.0,
    window_s: float = 20.0,
    rps: float = 12_000.0,
) -> list[TrainingSample]:
    """Run a workload under *n* random budget-fitted configs and collect samples.

    The offered rate is deliberately above the VM's capacity so achieved
    throughput *measures* each configuration instead of saturating at the
    offered load — how a real offline tuning session stresses the DBMS.
    """
    rng = np.random.default_rng(seed)
    db = SimulatedDatabase(catalog.flavor, vm, data_size_gb=data_size_gb, seed=seed)
    workload = (
        TPCCWorkload(rps=rps, seed=seed + 1)
        if workload_id == "tpcc"
        else YCSBWorkload(rps=rps, seed=seed + 1)
    )
    samples = []
    for _ in range(n):
        vec = rng.uniform(0, 1, size=len(catalog))
        config = vector_to_config(vec, catalog).fitted_to_budget(
            db.vm.db_memory_limit_mb, db.active_connections
        )
        # Restart per configuration (clean write-back state), warm up one
        # window, then measure — the protocol of a real tuning session.
        db.apply_config(config, mode="restart")
        db.run(workload.batch(window_s))
        result = db.run(workload.batch(window_s))
        samples.append(
            TrainingSample(workload_id, config, result.metrics, timestamp_s=db.clock_s)
        )
    return samples


@pytest.fixture
def trained_repo(pg_catalog):
    """Repository with a dozen TPCC samples under varied configs."""
    repo = WorkloadRepository()
    repo.add_many(make_samples(pg_catalog, "tpcc", n=12, seed=3))
    return repo
