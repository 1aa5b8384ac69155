"""Property-based tests for the newer modules."""

from hypothesis import given
from hypothesis import strategies as st

from tests.reference import lasso_coordinate_descent

import numpy as np


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
