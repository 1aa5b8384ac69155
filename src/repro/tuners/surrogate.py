"""Surrogate-assisted candidate screening for the BO-style tuner.

Exact GP-UCB scoring is what makes ``recommend()`` cost
milliseconds: the posterior std needs a LAPACK solve against every
candidate's kernel column, and the §4 budget repair round-trips the
whole candidate matrix through knob space first. Related work (E2ETune's
``surrogate_model/``, Gunasekaran et al. 2023) screens candidates with a
cheap learned surrogate before touching the expensive optimizer; this
module does the same for the OtterTune pipeline:

1. On every shortlist request the screen fits a :class:`CoresetGPR`: a
   GP with the *same* kernel hyperparameters as the exact scorer,
   fitted on a small k-center coreset of the request's (knob vector →
   objective) training set, with the posterior-variance solve replaced
   by a precomputed inverse so batch scoring is two small matmuls and
   no per-call LAPACK.
2. At recommendation time the surrogate UCB-scores the *raw* candidate
   set (before budget repair — the expensive half of candidate
   generation) and keeps only the top ``shortlist_size``. Budget repair
   and exact GP-UCB then run on the shortlist alone.

Why a coreset GP and not distilled trees or random features: the
acquisition surface is a sum of kernel bumps around training points, and
matching that inductive bias is what preserves the exact scorer's
*argmax*. Measured on seeded fixtures (see ``docs/performance.md``), a
16-point coreset retains the exact argmax in a 16-wide shortlist ≥ 90%
of the time at ~0.1 ms retrain; gradient-boosted trees and
random-Fourier ridge regression plateaued at 40–75% retention with
200–1200 ms retrains — unusable when a shared fleet repository bumps the
version every window.

Everything is deterministic, with *no* randomness at all: the k-center
selection starts at the best-objective sample and breaks ties by lowest
index, so the fitted surrogate — and therefore every prediction and
shortlist — is a pure function of (policy, training set). No model is
kept between requests: in the tuning loop a sample upload precedes
every request, so a model keyed on the repository version would never
be reused.

The screen is **off by default** everywhere. With no
:class:`SurrogatePolicy` wired the tuner never trains a model, draws no
extra randomness, and every figure output stays byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tuners.gpr import GaussianProcessRegressor, rbf_kernel

__all__ = [
    "SURROGATE_METRIC_FAMILIES",
    "SurrogatePolicy",
    "CoresetGPR",
    "SurrogateScreen",
    "kcenter_coreset",
]

#: The surrogate tier's metric family names and help strings, exported
#: through the Prometheus renderer and described up front on trace
#: registries (like the safety governor's families) so
#: ``repro trace --metrics`` surfaces them even before a sample lands.
SURROGATE_METRIC_FAMILIES: dict[str, str] = {
    "repro_surrogate_shortlists_total": (
        "Candidate sets prefiltered to a surrogate shortlist before "
        "exact GP-UCB scoring."
    ),
}


@dataclass(frozen=True)
class SurrogatePolicy:
    """Tunable thresholds of the surrogate screening tier.

    Parameters
    ----------
    shortlist_size:
        Candidates surviving the screen; §4 budget repair and exact
        GP-UCB run only on these. 16 retains the exact argmax ≥ 90% of
        the time on seeded fixtures (``tests/unit/test_surrogate.py``)
        while cutting recommend latency 1.1-1.5x
        (``benchmarks/test_perf_recommend.py``).
    max_coreset:
        Upper bound on the surrogate's k-center training subset. The
        screen's scoring cost is linear in this (kernel columns) plus
        the two small matmuls; 16 matches the measured retention/speed
        knee.
    min_train_samples:
        Below this many training samples the screen abstains and the
        caller scores the full candidate set — the exact GPR is cheap
        there anyway, and the coreset would be most of the data.
    """

    shortlist_size: int = 16
    max_coreset: int = 16
    min_train_samples: int = 20

    def __post_init__(self) -> None:
        if self.shortlist_size < 1:
            raise ValueError("shortlist_size must be >= 1")
        if self.max_coreset < 2:
            raise ValueError("max_coreset must be >= 2")
        if self.min_train_samples < 4:
            raise ValueError("min_train_samples must be >= 4")


def kcenter_coreset(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Indices of a greedy k-center subset of *x*, at most *m* of them.

    Seeded at the best-objective row (the region the acquisition argmax
    usually lives in), then repeatedly the row farthest from the chosen
    set — the classic 2-approximation cover, so the surrogate sees the
    whole sampled space, not just the incumbent's neighbourhood. Fully
    deterministic: ``np.argmax`` takes the first maximum, so every tie
    breaks to the lowest row index. Returned indices are sorted.
    """
    if len(x) != len(y):
        raise ValueError(f"x has {len(x)} rows but y has {len(y)}")
    if len(x) == 0:
        raise ValueError("cannot select a coreset of zero samples")
    first = int(np.argmax(y))
    chosen = [first]
    d2 = np.sum((x - x[first]) ** 2, axis=1)
    while len(chosen) < min(m, len(x)):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        np.minimum(d2, np.sum((x - x[nxt]) ** 2, axis=1), out=d2)
    return np.array(sorted(chosen), dtype=np.intp)


class CoresetGPR:
    """Exact-kernel GP on a coreset, shaped for cheap batch scoring.

    Same RBF-plus-noise posterior as
    :class:`~repro.tuners.gpr.GaussianProcessRegressor`, restricted to a
    k-center subset of the training data, with two differences that make
    it a *screening* model:

    - the noise-augmented kernel inverse is precomputed at fit time, so
      a batch UCB evaluation is one :func:`~repro.tuners.gpr.rbf_kernel`
      block and two ``(n, m)`` matmuls — no per-call triangular solve;
    - the training subset is capped, so scoring cost does not grow with
      the repository.

    Fitting draws no randomness; the model is a pure function of its
    inputs.
    """

    def __init__(
        self,
        length_scale: float = 0.5,
        signal_variance: float = 1.0,
        noise_variance: float = 0.05,
        max_coreset: int = 16,
    ) -> None:
        if length_scale <= 0 or signal_variance <= 0 or noise_variance <= 0:
            raise ValueError("GPR hyperparameters must be positive")
        if max_coreset < 2:
            raise ValueError("max_coreset must be >= 2")
        self.length_scale = length_scale
        self.signal_variance = signal_variance
        self.noise_variance = noise_variance
        self.max_coreset = max_coreset
        self._x: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._k_inv: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0

    @classmethod
    def matching(
        cls, gpr: GaussianProcessRegressor, max_coreset: int
    ) -> "CoresetGPR":
        """A surrogate with the exact scorer's kernel hyperparameters.

        Sharing the kernel is load-bearing for argmax retention: the
        surrogate then approximates the very surface the exact scorer
        ranks by, rather than a differently-smoothed cousin of it.
        """
        return cls(
            length_scale=gpr.length_scale,
            signal_variance=gpr.signal_variance,
            noise_variance=gpr.noise_variance,
            max_coreset=max_coreset,
        )

    def fit(self, x: np.ndarray, y: np.ndarray) -> "CoresetGPR":
        """Fit on the k-center coreset of (*x*, *y*)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        keep = kcenter_coreset(x, y, self.max_coreset)
        x = x[keep]
        y = y[keep]
        y_mean = float(np.mean(y))
        y_scale = float(np.std(y)) or 1.0
        k = rbf_kernel(x, x, self.length_scale, self.signal_variance)
        k[np.diag_indices_from(k)] += self.noise_variance
        k_inv = np.linalg.inv(k)
        self._k_inv = k_inv
        self._alpha = k_inv @ ((y - y_mean) / y_scale)
        self._y_mean = y_mean
        self._y_std = y_scale
        self._x = x
        return self

    def _mean_std(
        self, x_new: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._x is None or self._alpha is None or self._k_inv is None:
            raise RuntimeError("ucb() before fit()")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        k_star = rbf_kernel(x_new, self._x, self.length_scale, self.signal_variance)
        mean = k_star @ self._alpha * self._y_std + self._y_mean
        var = self.signal_variance - np.sum(
            (k_star @ self._k_inv) * k_star, axis=1
        )
        np.maximum(var, 1e-12, out=var)
        return mean, np.sqrt(var) * self._y_std

    def ucb(self, x_new: np.ndarray, kappa: float) -> np.ndarray:
        """Upper confidence bound ``mean + kappa * std`` at *x_new*."""
        mean, std = self._mean_std(x_new)
        return mean + kappa * std


class SurrogateScreen:
    """Coreset-GP prefilter for one BO-style tuner's candidate sets.

    :meth:`shortlist` either returns indices into the candidate matrix
    (top ``policy.shortlist_size`` by surrogate UCB, descending, ties by
    candidate index) or ``None`` when it abstains — no fitted exact GPR
    to mirror, no candidates, or too little training data. The caller
    keeps the full candidate set in that case, so enabling the screen
    can never *lose* candidates on thin repositories.
    """

    def __init__(self, policy: SurrogatePolicy) -> None:
        self.policy = policy
        self.shortlists = 0

    def shortlist(
        self,
        candidates: np.ndarray,
        gpr: GaussianProcessRegressor | None,
        x: np.ndarray,
        y: np.ndarray,
        kappa: float,
    ) -> np.ndarray | None:
        """Indices of the surviving candidates, or ``None`` to abstain.

        The surrogate is fitted on (*x*, *y*), the training set *gpr*
        was fitted on, with *gpr*'s kernel hyperparameters, so screen
        and scorer always agree on what they were trained from.
        """
        if (
            gpr is None
            or len(candidates) == 0
            or len(y) < self.policy.min_train_samples
        ):
            return None
        model = CoresetGPR.matching(gpr, self.policy.max_coreset).fit(x, y)
        scores = model.ucb(candidates, kappa=kappa)
        k = min(self.policy.shortlist_size, len(candidates))
        keep = np.argpartition(-scores, k - 1)[:k]
        # Canonical shortlist order: descending surrogate score, ties by
        # ascending candidate index.
        keep = keep[np.lexsort((keep, -scores[keep]))]
        self.shortlists += 1
        return keep
