"""Property-based tests for the newer modules."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core.tde.workload_change import hellinger_distance
from tests.reference import lasso_coordinate_descent

import numpy as np

distributions = st.dictionaries(
    st.text(alphabet="abcdef", min_size=1, max_size=3),
    st.floats(min_value=0.001, max_value=1.0),
    min_size=1,
    max_size=8,
).map(lambda d: {k: v / sum(d.values()) for k, v in d.items()})


class TestHellingerProperties:
    @given(distributions)
    def test_self_distance_zero(self, p):
        assert hellinger_distance(p, dict(p)) == 0.0

    @given(distributions, distributions)
    def test_bounded(self, p, q):
        d = hellinger_distance(p, q)
        assert 0.0 <= d <= 1.0 + 1e-9

    @given(distributions, distributions)
    def test_symmetric(self, p, q):
        assert math.isclose(
            hellinger_distance(p, q),
            hellinger_distance(q, p),
            rel_tol=1e-12,
            abs_tol=1e-12,
        )

    @given(distributions, distributions, distributions)
    def test_triangle_inequality(self, p, q, r):
        assert hellinger_distance(p, r) <= (
            hellinger_distance(p, q) + hellinger_distance(q, r) + 1e-9
        )


class TestLassoProperties:
    @given(st.integers(0, 2**31 - 1), st.floats(min_value=0.001, max_value=10.0))
    def test_coefficients_finite(self, seed, alpha):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        w = lasso_coordinate_descent(x, y, alpha)
        assert np.isfinite(w).all()

    @given(st.integers(0, 2**31 - 1))
    def test_monotone_sparsity_along_path(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(40, 5))
        y = x @ rng.normal(size=5) + rng.normal(0, 0.1, size=40)
        supports = [
            int(np.sum(np.abs(lasso_coordinate_descent(x, y, a)) > 1e-9))
            for a in (1.0, 0.1, 0.01)
        ]
        assert supports[0] <= supports[-1]
