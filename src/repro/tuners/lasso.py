"""Exact Lasso regularisation path, and knob ranking by path entry.

OtterTune ranks knobs by importance with Lasso: tracing the regularisation
path from strong to weak penalty, the order in which knob coefficients
become non-zero is the importance order. Fig. 15's accuracy experiment
compares the TDE's throttle class against the classes of the tuner's
top-5 ranked knobs, and the dynamic knob selector re-ranks on every
repository version bump, so this ranking is load-bearing twice over.

Both rankings trace the path with one solver, :func:`_lasso_path`: the
homotopy (LARS with the Lasso modification) on the standardised Gram
problem ``G = XᵀX/n``, ``c = Xᵀy/n``. The Lasso solution is piecewise
linear in the penalty; between two events (a coefficient joining the
active set, or an active coefficient crossing zero) it is
``w_A(α) = G_AA⁻¹(c_A − α·s_A)``. The solver walks those events from the
largest penalty down, one small ``G_AA`` solve per event, and reads the
exact coefficients off the segment that contains each grid alpha. It
has no iteration cap and no convergence tolerance, so the tail of a
ranking is the path's and not an artefact of a sweep budget; for the
catalogs here (d ≈ 14) a whole path costs a few dozen events.

Cyclic coordinate descent on the same Gram form lives with the tests
(``tests/reference.py``), as the independent reference they check the
path against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "lasso_gram_ranking",
    "lasso_path_ranking",
]

#: Gram diagonal at or below which a column has zero variance; such
#: columns never enter the path.
_DEGENERATE = 1e-12
#: A column whose residual variance given the active columns (its Schur
#: complement) is below this fraction of its own variance lies in their
#: span: its correlation divided by alpha stays constant along the
#: segment, so it cannot leave the KKT box and is not offered to join.
_SPANNED = 1e-10
#: Smallest rate of change a join or drop must have to count as an event.
_RATE = 1e-12


def _standardise(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 1e-12, std, 1.0)
    return (x - mean) / std, mean, std


def _standardised_problem(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Standardised design matrix and centred/scaled response."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("x must be (n, d) with matching y")
    if len(x) == 0:
        raise ValueError("empty design matrix")
    xs, _, _ = _standardise(x)
    ys = y - y.mean()
    y_std = ys.std() or 1.0
    return xs, ys / y_std


def _lasso_path(
    gram: np.ndarray, corr: np.ndarray, alphas: np.ndarray
) -> np.ndarray:
    """Exact Lasso coefficients at each of the descending *alphas*.

    Homotopy on ``min ½·wᵀGw − cᵀw + α·||w||₁``. Its KKT conditions are
    ``c − Gw = α·sign(w)`` on the support and ``|c − Gw| ≤ α`` off it.
    On a segment with active set ``A`` and signs ``s_A`` the solution is
    ``w_A = u − α·v`` with ``u = G_AA⁻¹c_A``, ``v = G_AA⁻¹s_A``, and the
    inactive correlations are ``p + α·a`` with ``p = c_I − G_IA·u``,
    ``a = G_IA·v``. The segment ends at the largest alpha below the
    current one where an inactive correlation reaches ``±α`` (a join) or
    an active coefficient reaches zero (a drop).

    Degenerate inputs never raise. Zero-variance columns never join.
    Columns in the span of the active set are not offered to join, so
    ``G_AA`` stays invertible when ``n < d`` or columns are duplicated.
    Only a correlation moving out of the box (``1 − s·a > 0``) can join
    and only a shrinking coefficient (``s·v < 0``) can drop, so a column
    that just dropped does not rejoin at once and one that just joined
    does not drop. The walk stops after ``4·d + 16`` events (random and
    degenerate problems use under half of that) and reads any remaining
    grid alphas off its last segment.

    Returns the ``(len(alphas), d)`` coefficient matrix.
    """
    d = len(corr)
    path = np.zeros((len(alphas), d))
    diag = gram.diagonal()
    eligible = diag > _DEGENERATE
    strength = np.where(eligible, np.abs(corr), 0.0)
    lam = float(strength.max())
    if lam <= 0.0:
        return path
    first = int(strength.argmax())
    active = [first]
    signs = [float(np.sign(corr[first]))]
    inactive_mask = eligible.copy()
    inactive_mask[first] = False
    i = int(np.searchsorted(-alphas, -lam, side="right"))
    max_events = 4 * d + 16
    for event in range(max_events + 1):
        idx = np.array(active)
        s_a = np.array(signs)
        inactive = np.flatnonzero(inactive_mask)
        g_ai = gram[np.ix_(idx, inactive)]
        sol = np.linalg.solve(
            gram[np.ix_(idx, idx)],
            np.column_stack([corr[idx], s_a, g_ai]),
        )
        u, v = sol[:, 0], sol[:, 1]
        # Next event: the largest alpha below ``lam`` where a column
        # joins (``join`` = (column, sign)) or an active one drops
        # (``drop`` = its position in ``active``). None ends the path.
        lam_next = 0.0
        join: tuple[int, float] | None = None
        drop: int | None = None
        if event < max_events:
            p = corr[inactive] - g_ai.T @ u
            a = g_ai.T @ v
            schur = diag[inactive] - np.einsum("ij,ij->j", g_ai, sol[:, 2:])
            free = schur > _SPANNED * diag[inactive]
            for sign in (1.0, -1.0):
                rate = 1.0 - sign * a
                ok = free & (rate > _RATE)
                if ok.any():
                    at = np.where(ok, sign * p / np.where(ok, rate, 1.0), 0.0)
                    k = int(at.argmax())
                    if at[k] > lam_next:
                        lam_next, join = float(at[k]), (int(inactive[k]), sign)
            shrinking = s_a * v < -_RATE
            if len(active) > 1 and shrinking.any():
                at = np.where(shrinking, u / np.where(shrinking, v, 1.0), 0.0)
                k = int(at.argmax())
                if at[k] > lam_next:
                    lam_next, join, drop = float(at[k]), None, k
            lam_next = min(lam_next, lam)
        while i < len(alphas) and alphas[i] > lam_next:
            path[i, idx] = u - alphas[i] * v
            i += 1
        if i == len(alphas):
            break
        if join is not None:
            active.append(join[0])
            signs.append(join[1])
            inactive_mask[join[0]] = False
        elif drop is not None:
            inactive_mask[active.pop(drop)] = True
            signs.pop(drop)
        lam = lam_next
    return path


def _rank_from_path(
    path: np.ndarray, gram: np.ndarray, corr: np.ndarray
) -> list[int]:
    """Features ordered by path entry, then final ``|w|``, then ``|corr|``.

    A feature enters at the first grid alpha where ``|w| > 1e-9``;
    features that never enter rank last. Degenerate (zero-variance)
    columns never enter and rank by a zeroed correlation.
    """
    n_alphas, d = path.shape
    entered = np.abs(path) > 1e-9
    entry_step = np.where(
        entered.any(axis=0), entered.argmax(axis=0), n_alphas
    )
    final_w = path[-1]
    tie_corr = np.where(gram.diagonal() > _DEGENERATE, np.abs(corr), 0.0)
    return sorted(
        range(d),
        key=lambda j: (entry_step[j], -abs(final_w[j]), -tie_corr[j]),
    )


def lasso_gram_ranking(
    gram: np.ndarray,
    corr: np.ndarray,
    n_alphas: int = 30,
    warm_path: np.ndarray | None = None,
    warm_problem: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list[int], np.ndarray]:
    """Path ranking over a precomputed standardised Gram problem.

    The dynamic knob selector re-ranks every time the repository grows.
    It maintains the standardised problem incrementally from running
    moments (see :mod:`repro.tuners.knob_selection`), so a re-rank never
    rebuilds the O(n·d²) Gram from raw rows; this function takes that
    problem directly. The path is evaluated at
    ``max|corr| · geomspace(1, 1e-3, n_alphas)``. *warm_path*/*warm_problem*
    carry the previous fit's coefficients and inputs: the path is a pure
    function of ``(gram, corr, n_alphas)``, so when the problem bits
    have not moved — a repository version bump that added no rows for
    this workload — the previous coefficients are returned without
    solving at all. Either way the result is exactly what a
    from-scratch solve of the same problem bits produces.

    Returns ``(order, path)``: *order* ranks features by path entry
    (:func:`_rank_from_path`), *path* is the ``(n_alphas, d)``
    coefficient matrix to hand back as the next call's *warm_path*.
    """
    d = len(corr)
    if d == 0 or gram.shape != (d, d):
        raise ValueError("gram must be (d, d) with matching corr")
    if (
        warm_path is not None
        and warm_problem is not None
        and warm_path.shape == (n_alphas, d)
        and np.array_equal(warm_problem[0], gram)
        and np.array_equal(warm_problem[1], corr)
    ):
        path = warm_path
    else:
        alpha_max = float(np.max(np.abs(corr))) or 1.0
        alphas = alpha_max * np.geomspace(1.0, 1e-3, n_alphas)
        path = _lasso_path(gram, corr, alphas)
    return _rank_from_path(path, gram, corr), path


def lasso_path_ranking(
    x: np.ndarray,
    y: np.ndarray,
    n_alphas: int = 30,
) -> list[int]:
    """Feature indices ranked by order of entry on the Lasso path.

    Starting from the smallest alpha that zeroes every coefficient,
    alphas decay geometrically; a feature's rank is the first alpha at
    which its coefficient becomes non-zero (ties broken by final
    coefficient magnitude). Features that never enter rank last, ordered
    by their ordinary correlation with *y*. The standardised Gram
    problem is built from the raw rows and ranked by
    :func:`lasso_gram_ranking`.
    """
    xs, ys = _standardised_problem(x, y)
    n = len(xs)
    order, _ = lasso_gram_ranking(
        (xs.T @ xs) / n, (xs.T @ ys) / n, n_alphas
    )
    return order
