"""Unit tests for the dynamic knob-selection tier.

Four concerns:

- mechanics: policy validation, the version-keyed rerank/reuse/hit
  counters, the frozen budget repair;
- **automaton ownership**: async/planner knobs stay out of every
  subspace (unless the policy opts out) while their throttle signals
  are still counted;
- **flag-on determinism**: two identically built selection-armed tuners
  recommend identically, and the fixed-vs-dynamic ablation report holds
  the strictly-smaller-subspace / >= 0.95-retention claim;
- **flag-off byte parity**: with no policy wired, a quick fig09 window
  must render byte-identically to the pre-selection golden capture
  (``tests/golden/fig09_quick.txt``).
"""

import pathlib

import numpy as np
import pytest

from repro.cli import main
from repro.core.features import Features
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.knobs import KnobClass, postgres_catalog
from repro.experiments import ablation_knob_selection
from repro.experiments.common import offline_train
from repro.obs.export import to_jsonl
from repro.obs.trace import TraceRecorder
from repro.tuners.base import TrainingSample, TuningRequest
from repro.tuners.knob_selection import (
    KNOBSELECT_METRIC_FAMILIES,
    KnobSelector,
    SelectionPolicy,
    repair_config_frozen,
)
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.surrogate import SurrogatePolicy
from repro.workloads.tpcc import TPCCWorkload
from tests.reference import recommend_projected

GOLDEN = pathlib.Path(__file__).parents[1] / "golden" / "fig09_quick.txt"

CATALOG = postgres_catalog()
AUTOMATON_KNOBS = {
    k.name for k in CATALOG.by_class(KnobClass.ASYNC_PLANNER)
}


def _stream(seed: int = 0, n: int = 24):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, len(CATALOG)))
    y = 2.0 * x[:, 0] - x[:, 3] + rng.normal(0.0, 0.1, n)
    return x, y


class TestPolicy:
    def test_defaults_valid(self):
        policy = SelectionPolicy()
        assert policy.top_k == 8
        assert policy.stability_window == 3
        assert policy.exclude_automaton_knobs is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"top_k": 1},
            {"stability_window": 0},
            {"min_rank_samples": 5},
            {"n_alphas": 1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SelectionPolicy(**kwargs)


class TestSelectorCache:
    def test_abstains_below_min_samples(self):
        selector = KnobSelector(SelectionPolicy(), CATALOG)
        x, y = _stream(n=8)
        assert selector.subspace("w", x, y, version=1) is None
        assert selector.counters() == (0, 0, 0, 0)

    def test_version_keyed_hits_and_reranks(self):
        selector = KnobSelector(SelectionPolicy(), CATALOG)
        x, y = _stream()
        first = selector.subspace("w", x, y, version=3)
        assert first is not None
        assert (selector.reranks, selector.hits) == (1, 0)
        # Same version: served from cache, no new rank work.
        assert selector.subspace("w", x, y, version=3) is first
        assert (selector.reranks, selector.hits) == (1, 1)
        # New version, same rows: the re-rank solves the same problem.
        again = selector.subspace("w", x, y, version=4)
        assert again is not None
        assert (selector.reranks, selector.hits) == (2, 1)
        assert again.active == first.active

    def test_states_keyed_per_workload(self):
        selector = KnobSelector(SelectionPolicy(), CATALOG)
        xa, ya = _stream(seed=1)
        xb, yb = _stream(seed=2)
        assert selector.subspace("a", xa, ya, 1) is not None
        assert selector.subspace("b", xb, yb, 1) is not None
        assert selector.reranks == 2
        assert selector.active_knobs("a") is not None
        assert selector.active_knobs("b") is not None

    def test_shrunk_dataset_resets_state(self):
        selector = KnobSelector(SelectionPolicy(), CATALOG)
        x, y = _stream(n=30)
        assert selector.subspace("w", x, y, 1) is not None
        rebuilt = selector.subspace("w", x[:20], y[:20], 2)
        assert rebuilt is not None
        assert selector._states["w"].rows_seen == 20

    def test_record_deltas_mirrors_counters(self):
        from repro.obs.trace import TraceRecorder

        selector = KnobSelector(SelectionPolicy(), CATALOG)
        recorder = TraceRecorder()
        x, y = _stream()
        before = selector.counters()
        selector.subspace("w", x, y, 1)
        selector.record_deltas(recorder, before)
        before = selector.counters()
        selector.subspace("w", x, y, 1)
        selector.record_deltas(recorder, before)
        counts = {
            sample.name: sample.value
            for sample in recorder.metrics.samples()
        }
        assert counts["repro_knobselect_reranks_total"] == 1
        assert counts["repro_knobselect_hits_total"] == 1

    def test_metric_families_cover_all_counters(self):
        assert set(KNOBSELECT_METRIC_FAMILIES) == {
            "repro_knobselect_reranks_total",
            "repro_knobselect_hits_total",
            "repro_knobselect_updates_total",
            "repro_knobselect_holds_total",
        }


class TestAutomatonOwnership:
    def test_async_planner_knobs_excluded_from_subspace(self):
        selector = KnobSelector(SelectionPolicy(), CATALOG)
        assert {CATALOG.names()[i] for i in selector._excluded} == AUTOMATON_KNOBS
        x, y = _stream()
        sub = selector.subspace("w", x, y, 1)
        assert sub is not None
        active = selector.active_knobs("w")
        assert active is not None
        assert not set(active) & AUTOMATON_KNOBS

    def test_opt_out_allows_planner_knobs(self):
        selector = KnobSelector(
            SelectionPolicy(exclude_automaton_knobs=False), CATALOG
        )
        assert not selector._excluded

    def test_signals_counted_but_knobs_stay_excluded(self):
        selector = KnobSelector(SelectionPolicy(), CATALOG)
        selector.note_automaton_signal("random_page_cost")
        selector.note_automaton_signal("random_page_cost")
        selector.note_automaton_signal("effective_cache_size")
        assert selector.automaton_signals == {
            "random_page_cost": 2,
            "effective_cache_size": 1,
        }
        x, y = _stream()
        selector.subspace("w", x, y, 1)
        active = selector.active_knobs("w")
        assert active is not None
        assert "random_page_cost" not in active


class TestFrozenRepair:
    def test_unmoved_knobs_stay_byte_identical(self):
        defaults = KnobConfiguration(CATALOG, CATALOG.defaults())
        moved = defaults.with_values(
            {"work_mem": CATALOG.get("work_mem").max_value}
        )
        repaired = repair_config_frozen(moved, defaults, 512.0, 20)
        for name in CATALOG.names():
            if name == "work_mem":
                continue
            assert repaired[name] == defaults[name]
        assert repaired["work_mem"] < moved["work_mem"]

    def test_within_budget_is_identity(self):
        defaults = KnobConfiguration(CATALOG, CATALOG.defaults())
        assert repair_config_frozen(defaults, defaults, 1e9, 20) is defaults


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


class TestFlagOnDeterminism:
    def test_ottertune_recommendations_deterministic(self):
        """Two identically built flag-on tuners recommend identically."""
        recs = []
        for _ in range(2):
            catalog, repository = _fixture_repository(3)
            tuner = OtterTuneTuner(catalog, repository, seed=5)
            tuner.configure(Features(selection=SelectionPolicy()))
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

    def test_configure_selection_arms_the_selector(self):
        catalog, repository = _fixture_repository(2)
        tuner = OtterTuneTuner(catalog, repository, seed=9)
        assert tuner.knob_selector is None
        tuner.configure(Features(selection=SelectionPolicy()))
        assert tuner.knob_selector is not None
        workload_id = repository.workload_ids()[0]
        sample = repository.samples(workload_id)[0]
        request = TuningRequest(
            "db0", workload_id, sample.config, sample.metrics, timestamp_s=0.0
        )
        first = tuner.recommend(request)
        tuner.recommend(request)
        selector = tuner.knob_selector
        assert selector.reranks == 1
        assert selector.hits == 1
        active = selector.active_knobs(workload_id)
        assert active is not None
        assert 0 < len(active) < len(catalog)
        inactive = [n for n in catalog.names() if n not in active]
        for name in inactive:
            assert first.config[name] == request.config[name]


class TestOnePipelineMatchesProjectedReference:
    """The subspace as a column index reproduces the projected pipeline.

    Twin tuners with selection armed answer the same request sequence:
    one through ``OtterTuneTuner.recommend``, one through the separate
    projected pipeline kept in ``tests/reference.py``. Each request's
    result and the generator state after it must be bit-equal.
    """

    THROTTLES = (
        (None, ()),
        (KnobClass.MEMORY.value, ("work_mem", "temp_buffers")),
        (KnobClass.ASYNC_PLANNER.value, ("random_page_cost", "effective_io_concurrency")),
        (KnobClass.MEMORY.value, ("work_mem",)),
        (KnobClass.ASYNC_PLANNER.value, ("random_page_cost",)),
        (KnobClass.BGWRITER.value, ("checkpoint_timeout",)),
    )

    @pytest.mark.parametrize("memory_limit_mb", [None, 6553.6])
    @pytest.mark.parametrize("surrogate", [False, True], ids=["plain", "screen"])
    # top_k=4 leaves working-area knobs outside the subspace, so the
    # budget repair has frozen columns to hold.
    @pytest.mark.parametrize("top_k", [8, 4])
    def test_bit_equal_to_reference(self, memory_limit_mb, surrogate, top_k):
        twins = []
        for _ in range(2):
            catalog, repository = _fixture_repository(6)
            tuner = OtterTuneTuner(
                catalog, repository, memory_limit_mb=memory_limit_mb, seed=11
            )
            tuner.configure(
                Features(
                    surrogate=SurrogatePolicy() if surrogate else None,
                    selection=SelectionPolicy(top_k=top_k),
                )
            )
            tuner.bind_recorder(TraceRecorder())
            twins.append(tuner)
        merged, reference = twins
        workload_id = merged.repository.workload_ids()[0]
        samples = merged.repository.samples(workload_id)
        config = samples[0].config
        for step, (throttle_class, knobs) in enumerate(self.THROTTLES):
            request = TuningRequest(
                "db0",
                workload_id,
                config,
                samples[step].metrics,
                throttle_class=throttle_class,
                throttle_knobs=knobs,
                timestamp_s=float(step),
            )
            got = merged.recommend(request)
            want = recommend_projected(reference, request)
            assert got.config.as_dict() == want.config.as_dict(), step
            assert (
                merged._rng.bit_generator.state
                == reference._rng.bit_generator.state
            )
            config = got.config
            # A new row bumps the repository version: the next request
            # re-ranks from updated moments.
            for tuner in twins:
                tuner.observe(
                    TrainingSample(workload_id, config, samples[step + 1].metrics)
                )
        selector = merged.knob_selector
        assert selector is not None
        active = selector.active_knobs(workload_id)
        assert active is not None and len(active) < len(merged.catalog)
        assert selector.automaton_signals["random_page_cost"] == 2
        assert to_jsonl(merged.recorder, {}) == to_jsonl(reference.recorder, {})


class TestAblation:
    def test_dynamic_arm_smaller_subspace_with_retention(self):
        """Satellite claim: strictly smaller subspace, >= 0.95 retention."""
        report = ablation_knob_selection.run(seed=0)
        for workload in ablation_knob_selection.WORKLOAD_NAMES:
            fixed, dynamic = report.pair(workload)
            assert fixed.subspace_size == len(CATALOG)
            assert dynamic.subspace_size < fixed.subspace_size
            assert report.retention(workload) >= 0.95

    def test_report_renders_reproducibly(self):
        first = ablation_knob_selection.run(seed=0).render()
        second = ablation_knob_selection.run(seed=0).render()
        assert first == second
        assert "retention" in first


class TestCLI:
    def test_ablate_knobs_dispatch(self, capsys):
        assert main(["ablate", "knobs", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("knob-selection ablation (seed=0")
        assert "retention" in out


class TestFlagOffGoldenParity:
    def test_fig09_quick_window_matches_pre_selection_golden(self, capsys):
        """Flag-off output is byte-identical to the pre-PR capture.

        ``tests/golden/fig09_quick.txt`` predates both the surrogate and
        the selection tiers; the default (no ``--features``) path
        must keep reproducing it exactly.
        """
        assert (
            main(["run", "fig09", "--fleet-size", "4", "--hours", "1",
                  "--seed", "3"])
            == 0
        )
        assert capsys.readouterr().out == GOLDEN.read_text()
