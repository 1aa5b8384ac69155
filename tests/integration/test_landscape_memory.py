"""Memory regression: a governed landscape's live memory stays bounded.

An 8-instance governed landscape (two databases each of TPC-C,
adulterated TPC-C, TPC-H and YCSB over four VM plans, one OtterTune
tuner, the governor, surrogate screen and knob selection, 5-minute
windows) is stepped through a 1-hour warm-up, then tracemalloc measures
the live memory it gains over the next 24 windows. Per-second telemetry
kept for the life of a landscape grows it by about 337 KB a window;
with nothing hoarded the growth is about 56 KB a window (the tuning
repository, configuration versions and other bounded-by-design
history). The bound sits well between the two.
"""

import tracemalloc

from repro import AutoDBaaS
from repro.cloud.provisioner import Provisioner
from repro.core.director.safety import GovernorPolicy
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import offline_train
from repro.tuners.knob_selection import SelectionPolicy
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.surrogate import SurrogatePolicy
from repro.workloads import TPCCWorkload, TPCHWorkload, YCSBWorkload
from repro.workloads.adulterated import AdulteratedTPCCWorkload

WINDOW_S = 300.0
WARMUP_WINDOWS = 12
MEASURED_WINDOWS = 24
#: Live growth allowed over the measured windows.
GROWTH_BOUND_BYTES = 3 * 1024 * 1024
PLANS = ("m4.large", "m4.xlarge", "t2.large", "t3.xlarge")


def _workload(kind: int, seed: int):
    if kind == 0:
        return TPCCWorkload(seed=seed)
    if kind == 1:
        return AdulteratedTPCCWorkload(adulteration_p=0.5, seed=seed)
    if kind == 2:
        return TPCHWorkload(seed=seed)
    return YCSBWorkload(seed=seed)


def _governed_landscape(seed: int = 1000) -> AutoDBaaS:
    catalog = postgres_catalog()
    repository = offline_train(
        catalog,
        [TPCCWorkload(rps=6000.0, data_size_gb=30.0, seed=seed + 90)],
        n_configs=8,
        seed=seed + 91,
    )
    tuner = OtterTuneTuner(
        catalog, repository, n_candidates=150, memory_limit_mb=None, seed=seed + 92
    )
    service = AutoDBaaS(
        [tuner],
        repository,
        window_s=WINDOW_S,
        downtime_period_s=2 * 3600.0,
        seed=seed,
        governor=GovernorPolicy(),
        surrogate=SurrogatePolicy(),
        selection=SelectionPolicy(),
    )
    provisioner = Provisioner(seed=seed + 1)
    for i in range(8):
        workload = _workload(i % 4, seed + 10 + i)
        deployment = provisioner.provision(
            plan=PLANS[(i + i // 4) % len(PLANS)],
            flavor="postgres",
            data_size_gb=workload.data_size_gb,
            replicas=1,
        )
        service.attach(
            deployment, workload, policy="tde", periodic_interval_s=WINDOW_S
        )
    return service


def test_governed_landscape_live_memory_stays_bounded():
    service = _governed_landscape()
    for _ in range(WARMUP_WINDOWS):
        service.step()
    tracemalloc.start()
    try:
        for _ in range(MEASURED_WINDOWS):
            outcomes = service.step()
        growth, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outcomes) == 8
    assert service.clock_s == (WARMUP_WINDOWS + MEASURED_WINDOWS) * WINDOW_S
    assert growth < GROWTH_BOUND_BYTES, (
        f"live memory grew {growth / 1024:.0f} KB over {MEASURED_WINDOWS} "
        f"windows ({growth / 1024 / MEASURED_WINDOWS:.0f} KB per window)"
    )
