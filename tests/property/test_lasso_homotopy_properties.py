"""Property-based tests (hypothesis): the lean Lasso path is the per-event one.

:func:`repro.tuners.lasso._lasso_path` walks the homotopy with its join
and drop search as a scalar loop over at most ``d`` Python floats and
fills each segment's grid rows in one assignment.
:func:`tests.reference.lasso_path_per_event` is the same walk written
with one masked numpy pass per event and one row at a time. The two
must return the same coefficient matrix bit for bit, on problems that
reach every branch of the walk:

- ``n < d`` (rank-deficient Gram), duplicated and negated columns (ties
  between join candidates, and columns in the active set's span),
  columns a rounding-level nudge away from another (the span guard's
  business), zero-variance columns (never eligible) and near-collinear
  columns (coefficients that cross zero and drop);
- grids of 1, 2, 30 and 60 alphas, starting at or above the largest
  correlation (grid rows above the first event stay zero).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tuners.lasso import _lasso_path, _standardised_problem
from tests.reference import lasso_path_per_event

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _problem(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = _standardised_problem(x, y)
    n = len(xs)
    return (xs.T @ xs) / n, (xs.T @ ys) / n


def _grid(corr: np.ndarray, n_alphas: int, top: float = 1.0) -> np.ndarray:
    alpha_max = float(np.max(np.abs(corr))) or 1.0
    return top * alpha_max * np.geomspace(1.0, 1e-3, n_alphas)


def _drops(path: np.ndarray) -> bool:
    """Whether some coefficient is non-zero on the grid and zero later."""
    nonzero = path != 0.0
    entry = nonzero.argmax(axis=0)
    return any(
        nonzero[entry[j]:, j].any() and not nonzero[entry[j]:, j].all()
        for j in range(path.shape[1])
    )


@st.composite
def homotopy_problems(draw):
    """(gram, corr, alphas) over awkward standardised designs."""
    rng = np.random.default_rng(draw(seeds))
    d = draw(st.integers(min_value=1, max_value=20))
    n = draw(
        st.one_of(
            st.integers(min_value=1, max_value=max(1, d - 1)),
            st.integers(min_value=d, max_value=3 * d + 4),
        )
    )
    x = rng.normal(size=(n, d))
    for j in range(1, d):
        kind = draw(
            st.sampled_from(
                ["free", "free", "near", "nudge", "dup", "neg", "const"]
            )
        )
        source = draw(st.integers(min_value=0, max_value=j - 1))
        if kind == "near":
            x[:, j] = x[:, source] + 0.3 * rng.normal(size=n)
        elif kind == "nudge":
            # Within _SPANNED of its source: offered to join only if the
            # span guard is missing.
            x[:, j] = x[:, source] + 1e-7 * rng.normal(size=n)
        elif kind == "dup":
            x[:, j] = x[:, source]
        elif kind == "neg":
            x[:, j] = -2.0 * x[:, source]
        elif kind == "const":
            x[:, j] = draw(st.floats(min_value=-5.0, max_value=5.0))
    beta = rng.normal(size=d) * (rng.random(size=d) < 0.7)
    noise = draw(st.sampled_from([0.0, 0.2, 1.0]))
    y = x @ beta + rng.normal(0.0, noise, n)
    gram, corr = _problem(x, y)
    n_alphas = draw(st.sampled_from([1, 2, 30, 60]))
    top = draw(st.sampled_from([1.0, 1.0, 2.0]))
    return gram, corr, _grid(corr, n_alphas, top)


class TestLeanPathIsPerEventPath:
    @given(homotopy_problems())
    @settings(max_examples=300, deadline=None)
    def test_coefficients_bit_identical(self, problem):
        gram, corr, alphas = problem
        lean = _lasso_path(gram, corr, alphas)
        reference = lasso_path_per_event(gram, corr, alphas)
        assert lean.shape == reference.shape == (len(alphas), len(corr))
        assert lean.tobytes() == reference.tobytes()

    def test_drop_events_are_reached(self):
        # Near-collinear columns with opposite effects: on this seeded
        # design an entered coefficient crosses zero and drops.
        rng = np.random.default_rng(10)
        z = rng.normal(size=(12, 4))
        x = z.copy()
        x[:, 1] = z[:, 0] + 0.3 * z[:, 1]
        x[:, 2] = z[:, 0] + 0.3 * z[:, 2]
        y = x @ np.array([2.0, -1.5, 1.0, 0.5]) + 0.2 * rng.normal(size=12)
        gram, corr = _problem(x, y)
        alphas = _grid(corr, 60)
        lean = _lasso_path(gram, corr, alphas)
        assert _drops(lean)
        assert lean.tobytes() == lasso_path_per_event(gram, corr, alphas).tobytes()

    def test_degenerate_problems(self):
        # All-constant design: nothing is eligible, the path stays zero.
        gram = np.zeros((3, 3))
        corr = np.zeros(3)
        alphas = _grid(corr, 30)
        assert not _lasso_path(gram, corr, alphas).any()
        assert not lasso_path_per_event(gram, corr, alphas).any()
        # One column: a single event, then the grid reads off its segment.
        gram, corr = _problem(np.arange(5.0)[:, None], np.arange(5.0) ** 2)
        for n_alphas in (1, 2, 30, 60):
            alphas = _grid(corr, n_alphas)
            assert (
                _lasso_path(gram, corr, alphas).tobytes()
                == lasso_path_per_event(gram, corr, alphas).tobytes()
            )
