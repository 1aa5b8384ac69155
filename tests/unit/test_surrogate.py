"""Unit tests for the surrogate screening tier.

Three concerns:

- mechanics: policy validation, k-center coreset selection, the
  coreset GP's posterior, the screen's abstain behaviour, and the one
  shortlist counter and event per screened recommendation;
- **parity/regret**: across seeded fixture repositories built by the
  real offline-training pipeline, the surrogate's shortlist must retain
  the exact GP-UCB argmax at least 90% of the time — the guarantee the
  screen's speedup is allowed to cost;
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
from repro.obs.trace import TraceRecorder
from repro.tuners.base import TuningRequest, config_to_vector
from repro.tuners.gpr import GaussianProcessRegressor
from repro.tuners.knob_selection import SelectionPolicy
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.surrogate import (
    SURROGATE_METRIC_FAMILIES,
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
            CoresetGPR().ucb(np.zeros((1, 3)), kappa=1.0)

    def test_coreset_capped(self):
        x, y = _toy_data(n=50)
        model = CoresetGPR(max_coreset=10).fit(x, y)
        assert model._x.shape[0] == 10

    def test_interpolates_near_training_points(self):
        # With every sample in the coreset the model is an exact GP on
        # the full data; its posterior mean at training rows should sit
        # near the observations (noise keeps it from matching exactly).
        x, y = _toy_data(n=12)
        model = CoresetGPR(max_coreset=16).fit(x, y)
        mean, _ = model._mean_std(x)
        assert float(np.mean(np.abs(mean - y))) < 0.2

    def test_ucb_is_mean_plus_kappa_std(self):
        x, y = _toy_data()
        model = CoresetGPR().fit(x, y)
        query = np.random.default_rng(1).uniform(0.0, 1.0, size=(7, x.shape[1]))
        mean, std = model._mean_std(query)
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
        assert screen.shortlist(candidates, None, x, y, 0.5) is None
        assert screen.shortlist(candidates[:0], gpr, x, y, 0.5) is None
        assert screen.shortlist(candidates, gpr, x[:3], y[:3], 0.5) is None
        assert screen.shortlists == 0

    def test_shortlist_is_subset_and_sized(self):
        screen = SurrogateScreen(SurrogatePolicy(shortlist_size=8))
        gpr, x, y = self._fitted()
        candidates = np.random.default_rng(3).uniform(0, 1, size=(40, x.shape[1]))
        keep = screen.shortlist(candidates, gpr, x, y, 0.5)
        assert keep is not None and len(keep) == 8
        assert len(set(keep.tolist())) == 8
        assert all(0 <= i < 40 for i in keep)


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
            x, y = tuner._training_set(request)
            gpr = GaussianProcessRegressor(
                length_scale=0.4, noise_variance=0.05
            ).fit(x, y)
            raw = tuner._raw_candidates(
                x, y, config_to_vector(sample.config), slice(None)
            )
            exact_best = int(np.argmax(gpr.ucb(raw, kappa=tuner.kappa)))
            keep = SurrogateScreen(policy).shortlist(
                raw, gpr, x, y, tuner.kappa
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
        assert tuner.surrogate_screen.shortlists == 2


class TestShortlistTelemetry:
    """One ``tuner.shortlist`` event and one counter tick per screened request.

    The full-space and projected (knob-selection) paths share the
    shortlist step, so both must report it the same way.
    """

    REQUESTS = 2

    def _trace(self, features: Features) -> tuple[list[str], dict[str, float]]:
        catalog, repository = _fixture_repository(2)
        tuner = OtterTuneTuner(catalog, repository, seed=9)
        tuner.configure(features)
        recorder = TraceRecorder()
        tuner.bind_recorder(recorder)
        workload_id = repository.workload_ids()[0]
        sample = repository.samples(workload_id)[0]
        request = TuningRequest(
            "db0", workload_id, sample.config, sample.metrics, timestamp_s=0.0
        )
        for _ in range(self.REQUESTS):
            tuner.recommend(request)
        names = [event.name for event in recorder.events]
        counts = {
            metric.name: metric.value for metric in recorder.metrics.samples()
        }
        return names, counts

    @pytest.mark.parametrize(
        "selection", [None, SelectionPolicy()], ids=["full-space", "projected"]
    )
    def test_one_event_and_increment_per_screened_request(self, selection):
        names, counts = self._trace(
            Features(surrogate=SurrogatePolicy(), selection=selection)
        )
        assert names.count("tuner.surrogate") == self.REQUESTS
        assert names.count("tuner.shortlist") == self.REQUESTS
        assert counts["repro_surrogate_shortlists_total"] == self.REQUESTS
        # The projected path really ran when selection was armed.
        projected = 0 if selection is None else self.REQUESTS
        assert names.count("tuner.subspace") == projected

    @pytest.mark.parametrize(
        "selection", [None, SelectionPolicy()], ids=["full-space", "projected"]
    )
    def test_abstaining_screen_emits_neither(self, selection):
        abstaining = SurrogatePolicy(min_train_samples=10_000)
        names, counts = self._trace(
            Features(surrogate=abstaining, selection=selection)
        )
        assert names.count("tuner.surrogate") == self.REQUESTS
        assert "tuner.shortlist" not in names
        assert "repro_surrogate_shortlists_total" not in counts

    def test_metric_families_cover_all_counters(self):
        assert set(SURROGATE_METRIC_FAMILIES) == {
            "repro_surrogate_shortlists_total"
        }


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
