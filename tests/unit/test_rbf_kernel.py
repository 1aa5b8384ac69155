"""The one-GEMM RBF kernel against the broadcast form it replaced."""

import numpy as np
import pytest

from repro.tuners.gpr import GaussianProcessRegressor, rbf_kernel
from tests.reference import BroadcastKernelGPR, rbf_kernel_broadcast


@pytest.mark.parametrize(
    "n, m, d",
    [(1, 1, 14), (1, 40, 14), (180, 150, 14), (30, 20, 1), (7, 1, 3)],
)
@pytest.mark.parametrize("signal_variance", [1.0, 2.5])
def test_matches_broadcast_kernel(n, m, d, signal_variance):
    rng = np.random.default_rng(n * 1000 + m + d)
    a = rng.uniform(0, 1, size=(n, d))
    b = rng.uniform(0, 1, size=(m, d))
    k = rbf_kernel(a, b, 0.4, signal_variance)
    assert k.shape == (n, m)
    np.testing.assert_allclose(
        k, rbf_kernel_broadcast(a, b, 0.4, signal_variance), rtol=1e-12
    )


@pytest.mark.parametrize("signal_variance", [1.0, 0.3, 2.5])
def test_identical_rows_at_most_signal_variance(signal_variance):
    # Knob vectors live in the unit cube; some rows sit near its origin.
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, size=(200, 14)) * rng.choice([1e-3, 1.0], 200)[:, None]
    k = rbf_kernel(x, x, 0.4, signal_variance)
    diagonal = np.diag(k)
    assert np.all(diagonal <= signal_variance)
    assert np.all(diagonal >= signal_variance * (1 - 1e-12))
    assert np.all(k <= signal_variance)


def _fleet_problem(rng):
    """n = 150 training rows at d = 14 with near-duplicates, 180 candidates."""
    n, d = 150, 14
    x = rng.uniform(0, 1, size=(n, d))
    x[1::2] = x[::2][: n // 2] + 1e-9 * rng.standard_normal((n // 2, d))
    y = rng.normal(0.0, 1.0, size=n)
    best = x[np.argsort(-y)[:30]]
    candidates = np.vstack(
        [
            rng.uniform(0, 1, size=(150, d)),
            np.clip(best + 0.05 * rng.standard_normal(best.shape), 0.0, 1.0),
        ]
    )
    return x, y, candidates


def test_gp_ucb_argmax_matches_broadcast_kernel_gp():
    rng = np.random.default_rng(150)
    for _ in range(200):
        x, y, candidates = _fleet_problem(rng)
        scores = GaussianProcessRegressor(length_scale=0.4).fit(x, y).ucb(candidates)
        reference = BroadcastKernelGPR(length_scale=0.4).fit(x, y).ucb(candidates)
        assert np.argmax(scores) == np.argmax(reference)
        np.testing.assert_allclose(scores, reference, rtol=1e-8)
