"""Unit tests for the surrogate screening tier.

Three concerns:

- mechanics: policy validation, k-center coreset selection, the
  coreset GP's posterior, the screen's cache/abstain behaviour;
- **parity/regret**: across seeded fixture repositories built by the
  real offline-training pipeline, the surrogate's shortlist must retain
  the exact GP-UCB argmax at least 90% of the time — the guarantee the
  warm-path speedup is allowed to cost;
- **flag-off byte parity**: with no policy wired, a quick fig09 window
  must render byte-identically to the pre-surrogate golden capture
  (``tests/golden/fig09_quick.txt``).
"""

import pathlib

import numpy as np
import pytest

from repro.cli import main
from repro.core.features import Features
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import offline_train
from repro.tuners.base import TuningRequest
from repro.tuners.gpr import GaussianProcessRegressor
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.surrogate import (
    CoresetGPR,
    SurrogatePolicy,
    SurrogateScreen,
    kcenter_coreset,
)
from repro.workloads.tpcc import TPCCWorkload

GOLDEN = pathlib.Path(__file__).parents[1] / "golden" / "fig09_quick.txt"

#: Seeds for the retention fixture sweep; 90% of these repositories must
#: keep the exact argmax inside the surrogate shortlist.
RETENTION_SEEDS = tuple(range(10))
RETENTION_FLOOR = 0.9


def _toy_data(seed: int = 0, n: int = 40, d: int = 5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, d))
    y = np.sin(3.0 * x[:, 0]) + 0.3 * x[:, 1] + rng.normal(0.0, 0.05, n)
    return x, y


class TestPolicy:
    def test_defaults_valid(self):
        policy = SurrogatePolicy()
        assert policy.shortlist_size == 16
        assert policy.max_coreset == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shortlist_size": 0},
            {"max_coreset": 1},
            {"min_train_samples": 3},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SurrogatePolicy(**kwargs)


class TestKCenterCoreset:
    def test_sorted_unique_and_bounded(self):
        x, y = _toy_data()
        keep = kcenter_coreset(x, y, 8)
        assert len(keep) == 8
        assert list(keep) == sorted(set(keep.tolist()))

    def test_contains_best_objective_row(self):
        x, y = _toy_data(seed=4)
        keep = kcenter_coreset(x, y, 6)
        assert int(np.argmax(y)) in keep

    def test_m_at_least_n_keeps_everything(self):
        x, y = _toy_data(n=5)
        assert kcenter_coreset(x, y, 16).tolist() == [0, 1, 2, 3, 4]

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            kcenter_coreset(np.empty((0, 3)), np.empty(0), 4)
        with pytest.raises(ValueError):
            kcenter_coreset(np.zeros((3, 2)), np.zeros(2), 2)


class TestCoresetGPR:
    def test_matching_copies_exact_kernel(self):
        gpr = GaussianProcessRegressor(
            length_scale=0.4, signal_variance=1.3, noise_variance=0.07
        )
        model = CoresetGPR.matching(gpr, max_coreset=12)
        assert model.length_scale == gpr.length_scale
        assert model.signal_variance == gpr.signal_variance
        assert model.noise_variance == gpr.noise_variance
        assert model.max_coreset == 12

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            CoresetGPR().predict(np.zeros((1, 3)))

    def test_coreset_capped(self):
        x, y = _toy_data(n=50)
        model = CoresetGPR(max_coreset=10).fit(x, y)
        assert model.is_fitted
        assert model.coreset_size == 10

    def test_interpolates_near_training_points(self):
        # With every sample in the coreset the model is an exact GP on
        # the full data; its posterior mean at training rows should sit
        # near the observations (noise keeps it from matching exactly).
        x, y = _toy_data(n=12)
        model = CoresetGPR(max_coreset=16).fit(x, y)
        mean = model.predict(x)
        assert float(np.mean(np.abs(mean - y))) < 0.2

    def test_ucb_is_mean_plus_kappa_std(self):
        x, y = _toy_data()
        model = CoresetGPR().fit(x, y)
        query = np.random.default_rng(1).uniform(0.0, 1.0, size=(7, x.shape[1]))
        mean, std = model.predict(query, return_std=True)
        np.testing.assert_allclose(
            model.ucb(query, kappa=1.7), mean + 1.7 * std, rtol=1e-12
        )


class TestScreenCache:
    def _fitted(self, seed=0):
        x, y = _toy_data(seed=seed)
        return GaussianProcessRegressor().fit(x, y), x, y

    def test_abstains_without_gpr_or_candidates_or_data(self):
        screen = SurrogateScreen(SurrogatePolicy(min_train_samples=4))
        gpr, x, y = self._fitted()
        candidates = np.random.default_rng(2).uniform(0, 1, size=(30, x.shape[1]))
        assert screen.shortlist("w", candidates, None, x, y, 0.5, 1) is None
        assert (
            screen.shortlist("w", candidates[:0], gpr, x, y, 0.5, 1) is None
        )
        assert (
            screen.shortlist("w", candidates, gpr, x[:3], y[:3], 0.5, 1) is None
        )
        assert screen.shortlists == 0

    def test_shortlist_is_subset_and_sized(self):
        screen = SurrogateScreen(SurrogatePolicy(shortlist_size=8))
        gpr, x, y = self._fitted()
        candidates = np.random.default_rng(3).uniform(0, 1, size=(40, x.shape[1]))
        keep = screen.shortlist("w", candidates, gpr, x, y, 0.5, 1)
        assert keep is not None and len(keep) == 8
        assert len(set(keep.tolist())) == 8
        assert all(0 <= i < 40 for i in keep)

    def test_cache_hit_until_version_bump(self):
        screen = SurrogateScreen(SurrogatePolicy())
        gpr, x, y = self._fitted()
        candidates = np.random.default_rng(4).uniform(0, 1, size=(50, x.shape[1]))
        screen.shortlist("w", candidates, gpr, x, y, 0.5, version=7)
        screen.shortlist("w", candidates, gpr, x, y, 0.5, version=7)
        assert (screen.retrains, screen.hits) == (1, 1)
        assert screen.model_version("w") == 7
        screen.shortlist("w", candidates, gpr, x, y, 0.5, version=8)
        assert (screen.retrains, screen.hits) == (2, 1)
        assert screen.model_version("w") == 8

    def test_models_keyed_per_workload(self):
        screen = SurrogateScreen(SurrogatePolicy())
        gpr, x, y = self._fitted()
        candidates = np.random.default_rng(5).uniform(0, 1, size=(30, x.shape[1]))
        screen.shortlist("a", candidates, gpr, x, y, 0.5, 1)
        screen.shortlist("b", candidates, gpr, x, y, 0.5, 1)
        assert screen.retrains == 2
        assert screen.model_version("a") == 1
        assert screen.model_version("b") == 1


def _fixture_repository(seed: int):
    """A seeded repository built by the real offline-training pipeline."""
    catalog = postgres_catalog()
    repository = offline_train(
        catalog,
        [TPCCWorkload(rps=500.0, data_size_gb=12.0, seed=seed)],
        n_configs=24,
        seed=seed + 1,
    )
    return catalog, repository


class TestArgmaxRetention:
    def test_shortlist_retains_exact_argmax(self):
        """Exact GP-UCB argmax survives the screen on >= 90% of fixtures."""
        policy = SurrogatePolicy()
        retained = 0
        for seed in RETENTION_SEEDS:
            catalog, repository = _fixture_repository(seed)
            tuner = OtterTuneTuner(catalog, repository, seed=seed + 2)
            workload_id = repository.workload_ids()[0]
            sample = repository.samples(workload_id)[0]
            request = TuningRequest(
                "db0", workload_id, sample.config, sample.metrics, timestamp_s=0.0
            )
            gpr, x, y = tuner._fitted_surrogate(request)
            assert gpr is not None
            raw = tuner._raw_candidates(x, y)
            exact_best = int(np.argmax(gpr.ucb(raw, kappa=tuner.kappa)))
            keep = SurrogateScreen(policy).shortlist(
                workload_id, raw, gpr, x, y, tuner.kappa, repository.version
            )
            assert keep is not None and len(keep) <= policy.shortlist_size
            if exact_best in keep:
                retained += 1
        assert retained >= RETENTION_FLOOR * len(RETENTION_SEEDS), (
            f"argmax retained on only {retained}/{len(RETENTION_SEEDS)} "
            f"fixtures (floor {RETENTION_FLOOR:.0%})"
        )

    def test_flag_on_recommendations_deterministic(self):
        """Two identically built flag-on tuners recommend identically."""
        recs = []
        for _ in range(2):
            catalog, repository = _fixture_repository(3)
            tuner = OtterTuneTuner(catalog, repository, seed=5)
            tuner.configure(Features(surrogate=SurrogatePolicy()))
            workload_id = repository.workload_ids()[0]
            sample = repository.samples(workload_id)[0]
            recs.append(
                tuner.recommend(
                    TuningRequest(
                        "db0",
                        workload_id,
                        sample.config,
                        sample.metrics,
                        timestamp_s=0.0,
                    )
                )
            )
        assert recs[0].config.as_dict() == recs[1].config.as_dict()
        assert recs[0].expected_improvement == recs[1].expected_improvement

    def test_configure_surrogate_arms_the_screen(self):
        catalog, repository = _fixture_repository(2)
        tuner = OtterTuneTuner(catalog, repository, seed=9)
        assert tuner.surrogate_screen is None
        tuner.configure(Features(surrogate=SurrogatePolicy()))
        assert tuner.surrogate_screen is not None
        workload_id = repository.workload_ids()[0]
        sample = repository.samples(workload_id)[0]
        request = TuningRequest(
            "db0", workload_id, sample.config, sample.metrics, timestamp_s=0.0
        )
        tuner.recommend(request)
        tuner.recommend(request)
        screen = tuner.surrogate_screen
        assert screen.shortlists == 2
        assert (screen.retrains, screen.hits) == (1, 1)


class TestFlagOffGoldenParity:
    def test_fig09_quick_window_matches_pre_surrogate_golden(self, capsys):
        """Flag-off output is byte-identical to the pre-PR capture.

        ``tests/golden/fig09_quick.txt`` was rendered by the commit
        before the surrogate tier existed; the default (no
        ``--features``) path must reproduce it exactly.
        """
        assert (
            main(["run", "fig09", "--fleet-size", "4", "--hours", "1",
                  "--seed", "3"])
            == 0
        )
        assert capsys.readouterr().out == GOLDEN.read_text()
