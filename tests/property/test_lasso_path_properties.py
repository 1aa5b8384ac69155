"""Property-based tests (hypothesis) on the exact Lasso path.

The knob rankings (OtterTune's ``ranked_knobs`` and the dynamic
selector's re-rank) read coefficients off :func:`lasso_gram_ranking`'s
path. These tests pin what makes that path exact:

- **KKT at every grid alpha** — with ``r = corr − gram·w``, every
  non-constant column satisfies ``r_j = α·sign(w_j)`` when ``w_j ≠ 0``
  and ``|r_j| ≤ α`` when ``w_j = 0``, within :func:`_tolerance`. The
  problems include ``n < d`` (rank-deficient Gram), duplicated, negated
  and rounded (tied) columns and constant columns; constant columns are
  outside the problem and never enter;
- **agreement with coordinate descent** — on well-conditioned problems
  (``n ≥ 3d``, independent columns) the ranking equals one read off
  :func:`lasso_coordinate_descent` run to tight convergence at each
  grid alpha;
- **a captured governed problem** on which 500 descent sweeps stop
  short of the KKT conditions is solved exactly.
"""

import json
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.tuners.lasso import (
    _rank_from_path,
    _standardised_problem,
    lasso_gram_ranking,
    lasso_path_ranking,
)
from tests.reference import cd_gram, lasso_coordinate_descent

#: KKT residual allowed, as a fraction of the largest |corr|. The exact
#: path lands near 1e-12; 500-sweep descent misses by up to 1e-2.
KKT_TOL = 1e-9
#: Absolute residual floor: the rounding level of a unit-diagonal Gram.
#: It only matters when the correlations are themselves rounding noise
#: (a constant response), where a relative bound means nothing.
KKT_FLOOR = 1e-15

_FIXTURE = (
    Path(__file__).parent.parent / "fixtures" / "lasso_governed_problem.json"
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _grid(corr: np.ndarray, n_alphas: int = 30) -> np.ndarray:
    """The grid :func:`lasso_gram_ranking` evaluates the path on."""
    alpha_max = float(np.max(np.abs(corr))) or 1.0
    return alpha_max * np.geomspace(1.0, 1e-3, n_alphas)


def _kkt_residual(
    gram: np.ndarray, corr: np.ndarray, alphas: np.ndarray, path: np.ndarray
) -> float:
    """Largest KKT residual over the grid, on the non-constant columns."""
    keep = gram.diagonal() > 1e-12
    gram, corr, path = gram[np.ix_(keep, keep)], corr[keep], path[:, keep]
    worst = 0.0
    for alpha, w in zip(alphas, path):
        r = corr - gram @ w
        on = w != 0.0
        worst = max(
            worst,
            float(np.max(np.abs(r[on] - alpha * np.sign(w[on])), initial=0.0)),
            float(np.max(np.abs(r[~on]) - alpha, initial=0.0)),
        )
    return worst


def _tolerance(corr: np.ndarray) -> float:
    return KKT_TOL * float(np.max(np.abs(corr))) + KKT_FLOOR


def _problem(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = _standardised_problem(x, y)
    n = len(xs)
    return (xs.T @ xs) / n, (xs.T @ ys) / n


@st.composite
def awkward_designs(draw):
    """(x, y, constant columns): n < d, duplicates, ties, constants."""
    rng = np.random.default_rng(draw(seeds))
    d = draw(st.integers(min_value=1, max_value=14))
    n = draw(st.integers(min_value=3, max_value=40))
    x = rng.normal(size=(n, d))
    constant = []
    for j in range(1, d):
        kind = draw(
            st.sampled_from(["free", "free", "dup", "neg", "round", "const"])
        )
        source = draw(st.integers(min_value=0, max_value=j - 1))
        if kind == "dup":
            x[:, j] = x[:, source]
        elif kind == "neg":
            x[:, j] = -2.0 * x[:, source]
        elif kind == "round":
            x[:, j] = np.round(x[:, j])
        elif kind == "const":
            x[:, j] = draw(st.floats(min_value=-5.0, max_value=5.0))
            constant.append(j)
    if draw(st.booleans()):
        beta = rng.normal(size=d) * (rng.random(size=d) < 0.5)
        noise = draw(st.sampled_from([0.0, 0.1, 1.0]))
        y = x @ beta + rng.normal(0.0, noise, n)
    else:
        # A constant response: its inexact mean leaves correlations that
        # are pure rounding noise, unequal even on duplicated columns.
        y = np.full(n, draw(st.floats(min_value=0.1, max_value=10.0)))
    return x, y, constant


class TestKKT:
    @given(awkward_designs())
    @settings(max_examples=200, deadline=None)
    def test_exact_path_satisfies_kkt_at_every_grid_alpha(self, design):
        x, y, constant = design
        gram, corr = _problem(x, y)
        order, path = lasso_gram_ranking(gram, corr)
        assert np.isfinite(path).all()
        assert _kkt_residual(gram, corr, _grid(corr), path) <= _tolerance(corr)
        assert not path[:, constant].any()
        assert sorted(order) == list(range(len(corr)))
        assert lasso_path_ranking(x, y) == order

    def test_captured_governed_problem(self):
        problem = json.loads(_FIXTURE.read_text())
        gram = np.array(problem["gram"])
        corr = np.array(problem["corr"])
        alphas = _grid(corr)
        capped = np.array(
            [
                cd_gram(gram, corr, float(a), np.zeros(len(corr)), 500, 1e-6)
                for a in alphas
            ]
        )
        assert _kkt_residual(gram, corr, alphas, capped) > 1e-3 * np.max(
            np.abs(corr)
        )
        _, path = lasso_gram_ranking(gram, corr)
        assert _kkt_residual(gram, corr, alphas, path) <= _tolerance(corr)


class TestAgreesWithConvergedDescent:
    @given(
        seed=seeds,
        d=st.integers(min_value=2, max_value=14),
        rows_per_column=st.integers(min_value=3, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_ranking_matches_tight_coordinate_descent(
        self, seed, d, rows_per_column
    ):
        rng = np.random.default_rng(seed)
        n = d * rows_per_column
        x = rng.normal(size=(n, d))
        y = x @ rng.normal(size=d) + rng.normal(0.0, 0.5, n)
        gram, corr = _problem(x, y)
        order, path = lasso_gram_ranking(gram, corr)
        # Entry is read at |w| > 1e-9: skip the measure-zero draws where
        # a coefficient sits close enough to that line for solver
        # rounding to flip it.
        assume(not np.any((np.abs(path) > 1e-12) & (np.abs(path) < 1e-7)))
        descent = np.array(
            [
                lasso_coordinate_descent(x, y, a, max_iter=100_000, tol=1e-14)
                for a in _grid(corr)
            ]
        )
        assert np.allclose(descent, path, rtol=0.0, atol=1e-8)
        assert _rank_from_path(descent, gram, corr) == order
