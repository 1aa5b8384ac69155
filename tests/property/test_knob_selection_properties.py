"""Property-based tests (hypothesis) on dynamic knob selection.

Invariants the selection tier must hold for *any* seeded sample stream:

- **warm == cold, bit for bit** — a selector whose running moments grew
  incrementally (one repository version at a time) derives the exact
  standardised problem and ranking a fresh selector fed the same prefix
  in one shot does, at *every* version. This is the license for the
  incremental re-rank: it can never drift from a from-scratch
  Lasso-path fit;
- **projection round-trips** — a projected recommendation carries every
  inactive knob byte-identically from the incumbent configuration,
  through candidate generation, frozen budget repair and the final
  ``with_values`` merge;
- **bounded set-churn** — the stability window caps active-subspace
  replacements at ``1 + reranks // stability_window`` per workload, no
  matter how noisy the rank stream is.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import Features
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import offline_train
from repro.tuners.base import TuningRequest
from repro.tuners.knob_selection import KnobSelector, SelectionPolicy
from repro.tuners.lasso import lasso_gram_ranking
from repro.tuners.ottertune import OtterTuneTuner
from repro.workloads.tpcc import TPCCWorkload

seeds = st.integers(min_value=0, max_value=2**31 - 1)
row_counts = st.integers(min_value=14, max_value=48)
windows = st.integers(min_value=1, max_value=5)

_CATALOG = postgres_catalog()
_D = len(_CATALOG)


def _stream(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A seeded (configs, objective) sample stream in arrival order."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, _D))
    y = (
        3.0 * x[:, 0]
        - 2.0 * x[:, 1] ** 2
        + np.sin(5.0 * x[:, 2])
        + rng.normal(0.0, 0.2, n)
    )
    return x, y


class TestWarmEqualsCold:
    @given(seed=seeds, n=row_counts)
    @settings(max_examples=25, deadline=None)
    def test_incremental_rerank_matches_from_scratch(self, seed, n):
        """Warm-started rankings == cold rankings at every version."""
        policy = SelectionPolicy(stability_window=1)
        x, y = _stream(seed, n)
        warm = KnobSelector(policy, _CATALOG)
        # Grow one row per version past the abstain threshold, so the
        # warm selector re-ranks from incrementally updated moments at
        # every step.
        for version in range(policy.min_rank_samples, n + 1):
            warm_sub = warm.subspace(
                "w", x[:version], y[:version], version
            )
            cold = KnobSelector(policy, _CATALOG)
            cold_sub = cold.subspace("w", x[:version], y[:version], version)
            assert warm_sub is not None and cold_sub is not None
            warm_problem = warm._states["w"].stats.standardised_problem()
            cold_problem = cold._states["w"].stats.standardised_problem()
            for warm_part, cold_part in zip(warm_problem, cold_problem):
                assert np.array_equal(warm_part, cold_part)
            assert (
                lasso_gram_ranking(*warm_problem, n_alphas=policy.n_alphas)[0]
                == lasso_gram_ranking(*cold_problem, n_alphas=policy.n_alphas)[0]
            )


def _live_fixture(seed: int):
    catalog = postgres_catalog()
    repository = offline_train(
        catalog,
        [TPCCWorkload(rps=500.0, data_size_gb=12.0, seed=seed)],
        n_configs=24,
        seed=seed + 1,
    )
    return catalog, repository


class TestProjectionRoundTrip:
    @given(seed=st.integers(min_value=0, max_value=7))
    @settings(max_examples=8, deadline=None)
    def test_ottertune_inactive_knobs_byte_identical(self, seed):
        """Every inactive knob survives recommend() byte-for-byte."""
        catalog, repository = _live_fixture(seed)
        tuner = OtterTuneTuner(
            catalog, repository, memory_limit_mb=6553.6, seed=seed + 2
        )
        tuner.configure(Features(selection=SelectionPolicy()))
        workload_id = repository.workload_ids()[0]
        sample = repository.samples(workload_id)[0]
        request = TuningRequest(
            "db0", workload_id, sample.config, sample.metrics, timestamp_s=0.0
        )
        recommendation = tuner.recommend(request)
        selector = tuner.knob_selector
        assert selector is not None
        active = selector.active_knobs(workload_id)
        assert active is not None
        inactive = [n for n in catalog.names() if n not in active]
        assert inactive, "projection test needs a non-trivial subspace"
        for name in inactive:
            assert recommendation.config[name] == request.config[name]


class TestChurnBound:
    @given(seed=seeds, stability_window=st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_updates_bounded_by_stability_window(self, seed, stability_window):
        """updates <= 1 + reranks // stability_window, any stream."""
        policy = SelectionPolicy(stability_window=stability_window)
        selector = KnobSelector(policy, _CATALOG)
        rng = np.random.default_rng(seed)
        rows = 0
        x = np.empty((0, _D))
        y = np.empty(0)
        for version in range(1, 12):
            # Fresh, differently-distributed rows each version so the
            # candidate set is as jittery as real young repositories.
            grow = int(rng.integers(2, 8))
            nx = rng.uniform(0.0, 1.0, size=(grow, _D))
            weights = rng.normal(0.0, 1.0, _D)
            ny = nx @ weights + rng.normal(0.0, 0.1, grow)
            x = np.vstack([x, nx])
            y = np.concatenate([y, ny])
            rows += grow
            selector.subspace("w", x, y, version)
        assert selector.updates <= 1 + selector.reranks // stability_window
