"""Gaussian process regression, from scratch on numpy.

The surrogate model of the BO-style tuner (OtterTune uses GPR over
observed (config, objective) pairs). Squared-exponential kernel with a
white-noise term, exact inference via Cholesky factorisation, and
targets standardised internally so callers can feed normalised knob
vectors (the unit cube) and raw throughput.

Each fit inverts its Cholesky factor once, so ``alpha`` and every
predictive variance are matrix products rather than LU solves on a
factor that is already triangular. The inverse is plain numpy: importing
scipy for ``solve_triangular`` would add ~28 MB to every process that
tunes.

:func:`rbf_kernel`, shared with the screen's
:class:`~repro.tuners.surrogate.CoresetGPR`, builds each kernel block's
exponent in one matrix product: under half the cost of the broadcast
form (row norms, outer add, cross term) at the loop's 180×150 blocks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GaussianProcessRegressor", "rbf_kernel"]

#: Blocks at most this many rows are inverted directly by LAPACK.
_LEAF_ROWS = 32


def rbf_kernel(
    a: np.ndarray, b: np.ndarray, length_scale: float, signal_variance: float
) -> np.ndarray:
    """``σ_f² exp(-|a_i - b_j|² / 2ℓ²)`` for every row pair of *a* and *b*.

    One GEMM of ``[a/ℓ², -|a|²/2ℓ², 1]`` against ``[b, 1, -|b|²/2ℓ²]``
    gives the exponent. It is clamped at 0, since rounding can leave a
    coincident pair a hair above it, so no entry exceeds ``σ_f²``.
    """
    half = -0.5 / length_scale**2
    a_aug = np.empty((len(a), a.shape[1] + 2))
    b_aug = np.empty((len(b), b.shape[1] + 2))
    np.multiply(a, -2.0 * half, out=a_aug[:, :-2])
    b_aug[:, :-2] = b
    a_aug[:, -2] = half * np.einsum("ij,ij->i", a, a)
    b_aug[:, -1] = half * np.einsum("ij,ij->i", b, b)
    a_aug[:, -1] = b_aug[:, -2] = 1.0
    k = a_aug @ b_aug.T
    np.minimum(k, 0.0, out=k)
    np.exp(k, out=k)
    if signal_variance != 1.0:
        k *= signal_variance
    return k


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 block recursion.

    ``[[A, 0], [B, C]]⁻¹ = [[A⁻¹, 0], [-C⁻¹ B A⁻¹, C⁻¹]]``: two half-size
    inverses and two matrix products, with ``np.linalg.inv`` only on the
    leaves. About 3x faster than ``np.linalg.inv`` on the whole factor at
    150 rows, because the products run in BLAS.
    """
    n = len(lower)
    if n <= _LEAF_ROWS:
        return np.linalg.inv(lower)
    h = n // 2
    a_inv = _lower_inverse(lower[:h, :h])
    c_inv = _lower_inverse(lower[h:, h:])
    out = np.zeros_like(lower)
    out[:h, :h] = a_inv
    out[h:, h:] = c_inv
    out[h:, :h] = -(c_inv @ lower[h:, :h]) @ a_inv
    return out


class GaussianProcessRegressor:
    """Exact GPR with an RBF kernel and homoscedastic noise.

    Parameters
    ----------
    length_scale:
        RBF length scale in (standardised) input space.
    signal_variance:
        Kernel amplitude σ_f².
    noise_variance:
        Observation noise σ_n² (added to the diagonal).
    """

    def __init__(
        self,
        length_scale: float = 0.5,
        signal_variance: float = 1.0,
        noise_variance: float = 0.05,
    ) -> None:
        if length_scale <= 0 or signal_variance <= 0 or noise_variance <= 0:
            raise ValueError("GPR hyperparameters must be positive")
        self.length_scale = length_scale
        self.signal_variance = signal_variance
        self.noise_variance = noise_variance
        self._x: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._chol_inv: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return rbf_kernel(a, b, self.length_scale, self.signal_variance)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        """Fit on inputs *x* (n, d) and targets *y* (n,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(x) != len(y):
            raise ValueError(f"x has {len(x)} rows but y has {len(y)}")
        if len(y) == 0:
            raise ValueError("cannot fit GPR on zero samples")
        y_mean = float(np.mean(y))
        y_scale = float(np.std(y)) or 1.0
        y_std = (y - y_mean) / y_scale
        k = self._kernel(x, x)
        k[np.diag_indices_from(k)] += self.noise_variance
        # Factorise before touching self: a LinAlgError on refit must not
        # leave a half-updated model behind.
        chol_inv = _lower_inverse(np.linalg.cholesky(k))
        self._chol_inv = chol_inv
        self._alpha = chol_inv.T @ (chol_inv @ y_std)
        self._y_mean = y_mean
        self._y_std = y_scale
        self._x = x
        return self

    def predict(
        self, x_new: np.ndarray, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Posterior mean (and optionally std) at *x_new* (m, d)."""
        if self._x is None or self._alpha is None or self._chol_inv is None:
            raise RuntimeError("predict() before fit()")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        k_star = self._kernel(x_new, self._x)
        mean = k_star @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = self._chol_inv @ k_star.T
        var = self.signal_variance - np.einsum("ij,ij->j", v, v)
        np.maximum(var, 1e-12, out=var)
        return mean, np.sqrt(var) * self._y_std

    def ucb(self, x_new: np.ndarray, kappa: float = 2.0) -> np.ndarray:
        """Upper confidence bound ``mean + kappa * std`` at *x_new*."""
        mean, std = self.predict(x_new, return_std=True)
        return mean + kappa * std
