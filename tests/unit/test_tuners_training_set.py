"""The OtterTune training set skips the mapping only where it cannot matter.

``_training_set`` caps the set at the most recent ``max_train_samples``
rows with the target's rows last. Once the target alone has that many
rows no mapped row survives the cap, so the tuner returns the target's
rows without mapping. :func:`tests.reference.training_set_always_mapped`
always maps; both must return the same ``x`` and ``y`` bit for bit at
target sizes around the cap, with and without a workload to map onto.
"""

import numpy as np
import pytest

from repro.dbsim.metrics import METRIC_NAMES, MetricsDelta
from repro.tuners import (
    TrainingSample,
    TuningRequest,
    WorkloadRepository,
    vector_to_config,
)
from repro.tuners.ottertune import OtterTuneTuner
from tests.reference import training_set_always_mapped

CAP = 12


def _samples(catalog, workload_id: str, n: int, seed: int) -> list[TrainingSample]:
    """*n* synthetic samples: uniform configs, log-normal metric values."""
    rng = np.random.default_rng(seed)
    return [
        TrainingSample(
            workload_id,
            vector_to_config(rng.uniform(size=len(catalog)), catalog),
            MetricsDelta(
                dict(
                    zip(
                        METRIC_NAMES,
                        rng.lognormal(size=len(METRIC_NAMES)).tolist(),
                    )
                )
            ),
        )
        for _ in range(n)
    ]


def _request(sample: TrainingSample) -> TuningRequest:
    return TuningRequest("db0", sample.workload_id, sample.config, sample.metrics)


@pytest.mark.parametrize("size", [CAP - 1, CAP, CAP + 1, 3 * CAP])
@pytest.mark.parametrize("mappable", [True, False], ids=["mappable", "alone"])
def test_training_set_matches_always_mapped(pg_catalog, size, mappable):
    repository = WorkloadRepository()
    if mappable:
        repository.add_many(_samples(pg_catalog, "offline", 2 * CAP, seed=1))
    target = _samples(pg_catalog, "live", size, seed=2)
    repository.add_many(target)
    tuner = OtterTuneTuner(pg_catalog, repository, max_train_samples=CAP, seed=0)
    request = _request(target[0])

    x, y = tuner._training_set(request)
    x_ref, y_ref, mapped_id = training_set_always_mapped(tuner, request)

    rows = min(CAP, size + (2 * CAP if mappable else 0))
    assert x.shape == x_ref.shape == (rows, len(pg_catalog))
    assert x.tobytes() == x_ref.tobytes()
    assert y.tobytes() == y_ref.tobytes()
    assert mapped_id == ("offline" if mappable else None)


def test_mapping_is_not_consulted_once_the_target_fills_the_cap(pg_catalog):
    repository = WorkloadRepository()
    repository.add_many(_samples(pg_catalog, "offline", CAP, seed=1))
    repository.add_many(_samples(pg_catalog, "live", CAP, seed=2))
    tuner = OtterTuneTuner(pg_catalog, repository, max_train_samples=CAP, seed=0)
    calls = []
    map_workload = tuner._mapper.map_workload

    def counted(*args, **kwargs):
        calls.append(args)
        return map_workload(*args, **kwargs)

    tuner._mapper.map_workload = counted
    request = _request(repository.samples("live")[0])
    tuner._training_set(request)
    assert calls == []
    # A cap one row above the target's size, and the mapping runs.
    tuner.max_train_samples = CAP + 1
    tuner._training_set(request)
    assert calls == [("live",)]
