"""Unit tests for coordinate-descent Lasso and the path ranking."""

import numpy as np
import pytest

from repro.tuners.lasso import _RATE, lasso_gram_ranking, lasso_path_ranking
from tests.reference import lasso_coordinate_descent


def _design(n=120, d=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    # y depends strongly on feature 0, weakly on feature 2, not on others.
    y = 5.0 * x[:, 0] + 0.8 * x[:, 2] + rng.normal(0, 0.1, size=n)
    return x, y


class TestCoordinateDescent:
    def test_huge_alpha_zeroes_all(self):
        x, y = _design()
        w = lasso_coordinate_descent(x, y, alpha=100.0)
        assert np.allclose(w, 0.0)

    def test_small_alpha_recovers_support(self):
        x, y = _design()
        w = lasso_coordinate_descent(x, y, alpha=0.01)
        assert abs(w[0]) > abs(w[1])
        assert abs(w[0]) > 0.5

    def test_sparsity_increases_with_alpha(self):
        x, y = _design()
        few = np.sum(np.abs(lasso_coordinate_descent(x, y, 0.5)) > 1e-9)
        many = np.sum(np.abs(lasso_coordinate_descent(x, y, 0.001)) > 1e-9)
        assert few <= many

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            lasso_coordinate_descent(np.zeros((3, 2)), np.zeros(4), 0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lasso_coordinate_descent(np.zeros((0, 2)), np.zeros(0), 0.1)

    def test_constant_feature_ignored(self):
        x, y = _design()
        x[:, 3] = 7.0
        w = lasso_coordinate_descent(x, y, alpha=0.01)
        assert w[3] == 0.0


class TestPathRanking:
    def test_strongest_feature_first(self):
        x, y = _design()
        order = lasso_path_ranking(x, y)
        assert order[0] == 0

    def test_secondary_feature_before_noise(self):
        x, y = _design()
        order = lasso_path_ranking(x, y)
        assert order.index(2) < order.index(1)

    def test_permutation_of_all_features(self):
        x, y = _design(d=5)
        order = lasso_path_ranking(x, y)
        assert sorted(order) == list(range(5))

    def test_deterministic(self):
        x, y = _design()
        assert lasso_path_ranking(x, y) == lasso_path_ranking(x, y)


class TestJoinGuard:
    """A column joins only if its correlation leaves the box faster than ``_RATE``.

    Column 0 (unit variance, correlation 1) enters first. Column 1 has
    variance 2 and correlation ``1 − δ`` with it, so along the first
    segment its correlation moves with α at rate ``1 − a = δ`` while its
    Schur complement (about 1) keeps it off the active span. Its own
    correlation ``1 − δ/2`` puts the join at α = 1/2 — if the guard
    admits the rate.
    """

    @pytest.mark.parametrize(
        "delta, joins", [(0.5 * _RATE, False), (5.0 * _RATE, True)]
    )
    def test_rate_threshold(self, delta, joins):
        g = 1.0 - delta
        gram = np.array([[1.0, g], [g, 2.0]])
        corr = np.array([1.0, 1.0 - delta / 2.0])
        _order, path = lasso_gram_ranking(gram, corr)
        assert path[-1, 0] > 0.0
        assert (np.count_nonzero(path[:, 1]) > 0) == joins
