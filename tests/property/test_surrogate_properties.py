"""Property-based tests (hypothesis) on the surrogate screening tier.

Invariants the screen must hold for *any* seeded training set:

- **determinism** — two independently constructed screens given the same
  training set and candidates produce byte-identical predictions and the
  same shortlist order; there is no hidden RNG state;
- **abstention** — with no exact GPR to mirror, or no candidates, the
  screen answers ``None`` and counts no shortlist;
- **shortlist sanity** — the shortlist is always a duplicate-free subset
  of the candidate indices and is never empty when candidates exist and
  the screen does not abstain.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tuners.gpr import GaussianProcessRegressor
from repro.tuners.surrogate import (
    CoresetGPR,
    SurrogatePolicy,
    SurrogateScreen,
    kcenter_coreset,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
sample_counts = st.integers(min_value=8, max_value=60)
candidate_counts = st.integers(min_value=1, max_value=120)
shortlist_sizes = st.integers(min_value=1, max_value=24)


def _training_set(seed: int, n: int, d: int = 4):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, d))
    y = np.cos(4.0 * x[:, 0]) + x[:, 1] ** 2 + rng.normal(0.0, 0.1, n)
    return x, y


def _candidates(seed: int, n: int, d: int = 4) -> np.ndarray:
    return np.random.default_rng(seed + 1).uniform(0.0, 1.0, size=(n, d))


class TestDeterminism:
    @given(seeds, sample_counts)
    @settings(max_examples=40, deadline=None)
    def test_equal_inputs_give_byte_identical_predictions(self, seed, n):
        x, y = _training_set(seed, n)
        query = _candidates(seed, 32)
        a = CoresetGPR(max_coreset=8).fit(x.copy(), y.copy())
        b = CoresetGPR(max_coreset=8).fit(x.copy(), y.copy())
        mean_a, std_a = a.predict(query, return_std=True)
        mean_b, std_b = b.predict(query, return_std=True)
        assert mean_a.tobytes() == mean_b.tobytes()
        assert std_a.tobytes() == std_b.tobytes()

    @given(seeds, sample_counts, candidate_counts, shortlist_sizes)
    @settings(max_examples=40, deadline=None)
    def test_independent_screens_agree_on_shortlist_order(
        self, seed, n, n_candidates, size
    ):
        x, y = _training_set(seed, n)
        candidates = _candidates(seed, n_candidates)
        gpr = GaussianProcessRegressor().fit(x, y)
        policy = SurrogatePolicy(shortlist_size=size, min_train_samples=4)
        keep_a = SurrogateScreen(policy).shortlist(candidates, gpr, x, y, 0.5)
        keep_b = SurrogateScreen(policy).shortlist(candidates, gpr, x, y, 0.5)
        assert keep_a is not None and keep_b is not None
        assert keep_a.tolist() == keep_b.tolist()

    @given(seeds, sample_counts)
    @settings(max_examples=40, deadline=None)
    def test_coreset_selection_is_deterministic(self, seed, n):
        x, y = _training_set(seed, n)
        assert (
            kcenter_coreset(x, y, 8).tolist()
            == kcenter_coreset(x.copy(), y.copy(), 8).tolist()
        )


class TestVersionKeyedRetrain:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_abstentions_never_touch_the_cache(self, seed):
        x, y = _training_set(seed, 30)
        candidates = _candidates(seed, 20)
        screen = SurrogateScreen(SurrogatePolicy(min_train_samples=4))
        assert screen.shortlist(candidates, None, x, y, 0.5) is None
        assert (
            screen.shortlist(
                candidates[:0], GaussianProcessRegressor().fit(x, y), x, y, 0.5
            )
            is None
        )
        assert screen.shortlists == 0


class TestShortlistSanity:
    @given(seeds, sample_counts, candidate_counts, shortlist_sizes)
    @settings(max_examples=60, deadline=None)
    def test_subset_unique_and_nonempty(self, seed, n, n_candidates, size):
        x, y = _training_set(seed, n)
        candidates = _candidates(seed, n_candidates)
        gpr = GaussianProcessRegressor().fit(x, y)
        policy = SurrogatePolicy(shortlist_size=size, min_train_samples=4)
        keep = SurrogateScreen(policy).shortlist(candidates, gpr, x, y, 0.5)
        # Candidates exist and the screen has enough data: it must answer.
        assert keep is not None and len(keep) > 0
        assert len(keep) == min(size, n_candidates)
        indices = keep.tolist()
        assert len(set(indices)) == len(indices)
        assert all(0 <= i < n_candidates for i in indices)

    @given(seeds, sample_counts, candidate_counts, shortlist_sizes)
    @settings(max_examples=40, deadline=None)
    def test_shortlist_ordered_by_descending_surrogate_score(
        self, seed, n, n_candidates, size
    ):
        x, y = _training_set(seed, n)
        candidates = _candidates(seed, n_candidates)
        gpr = GaussianProcessRegressor().fit(x, y)
        policy = SurrogatePolicy(shortlist_size=size, min_train_samples=4)
        keep = SurrogateScreen(policy).shortlist(candidates, gpr, x, y, 0.5)
        assert keep is not None
        # The screen's model is a pure function of (policy, training set).
        model = CoresetGPR.matching(gpr, policy.max_coreset).fit(x, y)
        scores = model.ucb(candidates, kappa=0.5)[keep]
        assert all(
            scores[i] >= scores[i + 1] for i in range(len(scores) - 1)
        )
