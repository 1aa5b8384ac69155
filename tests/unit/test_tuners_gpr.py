"""Unit tests for the from-scratch Gaussian process regressor."""

import numpy as np
import pytest

from repro.tuners.gpr import GaussianProcessRegressor, _lower_inverse


def _wave(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 2))
    y = np.sin(4 * x[:, 0]) + 0.5 * x[:, 1]
    return x, y


class TestFit:
    def test_interpolates_training_points(self):
        x, y = _wave()
        gpr = GaussianProcessRegressor(noise_variance=1e-4).fit(x, y)
        pred = gpr.predict(x)
        assert np.max(np.abs(pred - y)) < 0.05

    def test_generalises_smooth_function(self):
        x, y = _wave(n=80)
        gpr = GaussianProcessRegressor().fit(x, y)
        x_test, y_test = _wave(n=20, seed=99)
        pred = gpr.predict(x_test)
        assert np.mean(np.abs(pred - y_test)) < 0.25

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor().fit(np.zeros((3, 2)), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().predict(np.zeros((1, 2)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor(length_scale=0.0)

    def test_constant_targets_handled(self):
        x = np.random.default_rng(0).uniform(0, 1, size=(10, 2))
        gpr = GaussianProcessRegressor().fit(x, np.full(10, 5.0))
        assert gpr.predict(x)[0] == pytest.approx(5.0, abs=0.1)


class TestUncertainty:
    def test_std_small_at_training_points(self):
        x, y = _wave()
        gpr = GaussianProcessRegressor(noise_variance=1e-4).fit(x, y)
        _, std_train = gpr.predict(x, return_std=True)
        _, std_far = gpr.predict(np.array([[5.0, 5.0]]), return_std=True)
        assert std_train.mean() < std_far[0]

    def test_ucb_above_mean(self):
        x, y = _wave()
        gpr = GaussianProcessRegressor().fit(x, y)
        grid = np.random.default_rng(1).uniform(0, 1, size=(10, 2))
        mean = gpr.predict(grid)
        ucb = gpr.ucb(grid, kappa=2.0)
        assert np.all(ucb >= mean)

    def test_kappa_zero_is_mean(self):
        x, y = _wave()
        gpr = GaussianProcessRegressor().fit(x, y)
        grid = np.random.default_rng(1).uniform(0, 1, size=(5, 2))
        assert np.allclose(gpr.ucb(grid, kappa=0.0), gpr.predict(grid))


def _reference_predict(gpr, x, y, x_new):
    """Reference mean and std: LU solves on the Cholesky factor."""
    y_mean = float(np.mean(y))
    y_scale = float(np.std(y)) or 1.0
    k = gpr._kernel(x, x) + gpr.noise_variance * np.eye(len(x))
    chol = np.linalg.cholesky(k)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, (y - y_mean) / y_scale))
    k_star = gpr._kernel(x_new, x)
    v = np.linalg.solve(chol, k_star.T)
    var = np.maximum(gpr.signal_variance - np.sum(v**2, axis=0), 1e-12)
    return k_star @ alpha * y_scale + y_mean, np.sqrt(var) * y_scale


class TestInverseFactor:
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 150, 300])
    def test_blocked_inverse_inverts_the_factor(self, n):
        x = np.random.default_rng(n).uniform(0, 1, size=(n, 8))
        gpr = GaussianProcessRegressor(length_scale=0.4)
        chol = np.linalg.cholesky(gpr._kernel(x, x) + 0.05 * np.eye(n))
        residual = _lower_inverse(chol) @ chol - np.eye(n)
        assert np.max(np.abs(residual)) <= 1e-12

    @pytest.mark.parametrize("n", [5, 40, 150])
    def test_matches_lu_solve_reference(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(0, 1, size=(n, 14))
        # Near-duplicate training points, as the loop's repeated configs give.
        x[1::2] = x[::2][: n // 2] + 1e-9 * rng.standard_normal((n // 2, 14))
        y = rng.normal(100.0, 15.0, size=n)
        x_new = np.vstack([x[:3], rng.uniform(0, 1, size=(50, 14))])
        gpr = GaussianProcessRegressor(length_scale=0.4).fit(x, y)
        mean, std = gpr.predict(x_new, return_std=True)
        ref_mean, ref_std = _reference_predict(gpr, x, y, x_new)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-10)
        np.testing.assert_allclose(std, ref_std, rtol=1e-10)

    @pytest.mark.parametrize("step", ["cholesky", "inv"])
    def test_failed_refit_keeps_previous_fit(self, monkeypatch, step):
        x, y = _wave()
        gpr = GaussianProcessRegressor().fit(x, y)
        grid = np.random.default_rng(1).uniform(0, 1, size=(10, 2))
        before = gpr.predict(grid, return_std=True)

        def fail(_):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, step, fail)
        with pytest.raises(np.linalg.LinAlgError):
            gpr.fit(x[:7], y[:7] + 1.0)
        monkeypatch.undo()
        assert gpr._x.shape[0] == len(x)
        after = gpr.predict(grid, return_std=True)
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[1], after[1])
