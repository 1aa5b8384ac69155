"""Guard: the tuning loop never imports scipy.

The GPR inverts its Cholesky factor with plain numpy, and the workload
mapping bins without scipy, so a recommend never needs it. Importing
``scipy.linalg`` alone raises a bare interpreter's maxrss from 26.9 to
55.3 MB (numpy 2.4, scipy 1.17, Linux x86-64). In the fleet-tde loop
benchmark it took peak RSS from 63.7 to 84.1 MB, past its 15% bound.
The check runs in a fresh interpreter, because the test process may
already hold scipy for other tests.
"""

import os
import pathlib
import subprocess
import sys

import repro

_SCRIPT = """
import sys

from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import offline_train
from repro.tuners.base import TuningRequest
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.workload_mapping import WorkloadMapper
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.ycsb import YCSBWorkload

catalog = postgres_catalog()
repository = offline_train(
    catalog,
    [TPCCWorkload(rps=500.0, data_size_gb=12.0, seed=21), YCSBWorkload(seed=3)],
    n_configs=8,
    seed=22,
)
tuner = OtterTuneTuner(catalog, repository, memory_limit_mb=6553.6, seed=23)
workload_id = repository.workload_ids()[0]
sample = repository.samples(workload_id)[0]
tuner.recommend(
    TuningRequest("db0", workload_id, sample.config, sample.metrics, 0.0)
)
assert WorkloadMapper(repository).map_workload(workload_id).mapped
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(",".join(loaded) or "none")
"""


def test_recommend_and_mapping_never_import_scipy():
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "none"
