"""Version-keyed cache invalidation and vectorised-path parity tests.

The perf work caches derived tuning state (decile bin edges, mapping
results) behind the repository version counter, and replaces scalar hot
paths with batched equivalents. These tests pin down the two properties
that make that safe: caches refresh exactly when their inputs change,
and the vectorised paths match their scalar references bit for bit. The
engine memoises no configuration-derived term across windows, so a
window always runs under the live configuration however it was set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dbsim import SimulatedDatabase
from repro.dbsim.config import fit_values_to_budget
from repro.tuners import TrainingSample, TuningRequest, WorkloadRepository
from repro.tuners.base import (
    config_to_vector,
    values_to_vectors,
    vector_to_config,
    vectors_to_values,
)
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.workload_mapping import WorkloadMapper
from repro.workloads.tpch import TPCHWorkload

from tests.conftest import make_samples
from tests.reference import (
    ServiceTimeMemo,
    lasso_coordinate_descent,
    run_batch_memoised,
)


# -- derived-model caches ------------------------------------------------------


@pytest.fixture
def repo_and_request(pg_catalog):
    repo = WorkloadRepository()
    repo.add_many(make_samples(pg_catalog, "tpcc", n=8, seed=3))
    repo.add_many(make_samples(pg_catalog, "ycsb", n=8, seed=4))
    sample = repo.samples("tpcc")[0]
    request = TuningRequest(
        "db0", "tpcc", sample.config, sample.metrics, timestamp_s=0.0
    )
    return repo, request, sample


class TestLazyRanking:
    """``recommend()`` solves no Lasso path: nothing reads a ranking."""

    @pytest.fixture
    def solves(self, monkeypatch):
        import repro.tuners.ottertune as ottertune

        calls = []
        inner = ottertune.lasso_path_ranking

        def spy(x, y, *args, **kwargs):
            calls.append(len(y))
            return inner(x, y, *args, **kwargs)

        monkeypatch.setattr(ottertune, "lasso_path_ranking", spy)
        return calls

    def test_unread_ranking_never_solves(
        self, pg_catalog, repo_and_request, solves
    ):
        repo, request, sample = repo_and_request
        tuner = OtterTuneTuner(pg_catalog, repo, memory_limit_mb=6553.6, seed=1)
        for step in range(3):
            tuner.recommend(request)
            repo.add(TrainingSample("tpcc", sample.config, sample.metrics, step))
        assert solves == []


class TestMapperEdgeCache:
    def test_edges_reused_until_add(self, repo_and_request):
        repo, _, sample = repo_and_request
        mapper = WorkloadMapper(repo)
        edges = mapper._bin_edges()
        assert mapper._bin_edges() is edges  # same object: cache hit
        repo.add(TrainingSample("tpcc", sample.config, sample.metrics, 99.0))
        refreshed = mapper._bin_edges()
        assert refreshed is not edges

    def test_edges_shared_across_mappers(self, repo_and_request):
        repo, _, _ = repo_and_request
        edges = WorkloadMapper(repo)._bin_edges()
        assert WorkloadMapper(repo)._bin_edges() is edges

    def test_mapping_result_refreshes_after_add(self, repo_and_request):
        repo, _, sample = repo_and_request
        mapper = WorkloadMapper(repo)
        result = mapper.map_workload("tpcc")
        assert mapper.map_workload("tpcc") is result
        repo.add(TrainingSample("ycsb", sample.config, sample.metrics, 99.0))
        assert mapper.map_workload("tpcc") is not result


# -- service times follow the live configuration ------------------------------


class TestServiceTimeCache:
    def test_reconfigured_run_uses_fresh_service_times(self, pg_db, tpcc):
        """End to end: a restart with a new config changes results."""
        pg_db.run(tpcc.batch(20.0))
        baseline = pg_db.run(tpcc.batch(20.0)).throughput
        boosted = pg_db.config.with_values(
            {"shared_buffers": 4096, "work_mem": 256.0}
        )
        pg_db.apply_config(boosted, mode="restart")
        pg_db.run(tpcc.batch(20.0))
        assert pg_db.run(tpcc.batch(20.0)).throughput != baseline

    def test_direct_config_assignment_reprices_next_window(self, monkeypatch):
        """A window after ``db.config = ...`` is costed under the new config.

        Figures and tests set ``config`` directly, outside ``apply_config``;
        the second window's service times must come from the new
        ``work_mem``, not the first window's configuration.
        """
        from repro.dbsim import engine

        # The engine's commit latency, disk factor and swap factor, as
        # passed to the executor.
        calls = []
        run_batch = engine.run_batch
        monkeypatch.setattr(
            engine, "run_batch", lambda *args: calls.append(args) or run_batch(*args)
        )
        db = SimulatedDatabase("postgres", "m4.large", data_size_gb=24.0, seed=7)
        workload = TPCHWorkload(rps=4.0, data_size_gb=24.0, seed=11)
        first = db.run(workload.batch(300.0))
        db.config = db.config.with_values({"work_mem": 1024.0})
        second = db.run(workload.batch(300.0))
        assert second.spill.spill_read_write_mb < first.spill.spill_read_write_mb
        commit_latency, data_latency_factor, swap = calls[-1][-3:]
        expected = run_batch_memoised(
            second.batch,
            db.config,
            db.vm,
            second.hit_ratio,
            db._planner,
            commit_latency,
            data_latency_factor,
            swap,
            ServiceTimeMemo(),
        )
        assert second.summary == expected


# -- vectorised-path parity ----------------------------------------------------


class TestLassoBatchParity:
    """The reference descent the exact path is checked against.

    The path itself is pinned by the KKT and agreement properties in
    ``tests/property/test_lasso_path_properties.py``.
    """

    def test_degenerate_column_is_ignored(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 4))
        x[:, 2] = 3.0  # constant: zero variance after standardisation
        y = x @ np.array([1.0, -2.0, 0.0, 0.5])
        w = lasso_coordinate_descent(x, y, alpha=0.01)
        assert w[2] == 0.0


class TestBatchedRepairParity:
    @pytest.mark.parametrize("limit,conns", [(6553.6, 40), (2048.0, 80), (512.0, 10)])
    def test_repair_matches_scalar_bitwise(self, pg_catalog, limit, conns):
        """Same knob values in → bit-identical repaired values out.

        An omitted ``frozen``, ``frozen=None`` and an all-False mask are
        the same unfrozen repair.
        """
        from repro.dbsim.config import KnobConfiguration

        rng = np.random.default_rng(3)
        vectors = rng.uniform(0.0, 1.0, size=(25, len(pg_catalog)))
        values = vectors_to_values(vectors, pg_catalog)
        names = pg_catalog.names()
        scalar = np.array(
            [
                [config[n] for n in names]
                for config in (
                    KnobConfiguration(
                        pg_catalog, dict(zip(names, row))
                    ).fitted_to_budget(limit, conns)
                    for row in values
                )
            ]
        )
        for frozen in ({}, {"frozen": None}, {"frozen": np.zeros(len(names), bool)}):
            fitted = fit_values_to_budget(values, pg_catalog, limit, conns, **frozen)
            assert np.array_equal(scalar, fitted), frozen

    def test_vector_round_trip_matches_scalar(self, pg_catalog):
        """Full batched pipeline vs config round trip.

        The batched transform evaluates ``**`` with numpy's vectorised
        pow, which may differ from the scalar ``float.__pow__`` in the
        last ulp on log-scaled knobs, so the round trip is compared to
        float precision rather than bitwise (the repair itself is bitwise,
        see above).
        """
        rng = np.random.default_rng(3)
        vectors = rng.uniform(0.0, 1.0, size=(25, len(pg_catalog)))
        limit, conns = 6553.6, 40
        values = vectors_to_values(vectors, pg_catalog)
        fitted = fit_values_to_budget(values, pg_catalog, limit, conns)
        batched = values_to_vectors(fitted, pg_catalog)
        for i in range(len(vectors)):
            config = vector_to_config(vectors[i], pg_catalog).fitted_to_budget(
                limit, conns
            )
            np.testing.assert_allclose(
                batched[i], config_to_vector(config), rtol=0.0, atol=1e-9
            )

    def test_repaired_rows_fit_budget(self, pg_catalog):
        rng = np.random.default_rng(4)
        vectors = rng.uniform(0.0, 1.0, size=(10, len(pg_catalog)))
        limit, conns = 2048.0, 80
        values = vectors_to_values(vectors, pg_catalog)
        fitted = fit_values_to_budget(values, pg_catalog, limit, conns)
        for row in values_to_vectors(fitted, pg_catalog):
            config = vector_to_config(row, pg_catalog)
            assert config.memory_footprint_mb(conns) <= limit


class TestInstantiateParity:
    def test_precomputed_template_matches_text(self, tpcc):
        """A family's log template is what templating any statement gives."""
        from repro.workloads.templating import make_template

        rendered = {"int": "481516", "str": "'v002342'", "float": "3141.59"}
        for family in tpcc.families.values():
            text = family.template
            for kind in family.param_spec:
                text = text.replace("%s", rendered[kind], 1)
            assert make_template(text) == family.log_template
            assert family.instantiate(family.footprint).text == family.log_template


class TestTopSamplesParity:
    def test_matches_stable_sort(self, pg_catalog):
        repo = WorkloadRepository()
        samples = make_samples(pg_catalog, "tpcc", n=10, seed=5)
        # Inject duplicate objectives to exercise stable ordering.
        dup = samples[0]
        samples.append(
            TrainingSample(dup.workload_id, dup.config, dup.metrics, 50.0)
        )
        repo.add_many(samples)
        rows = repo.samples("tpcc")
        for k in (1, 3, 8, 11):
            expected = sorted(rows, key=lambda s: -s.objective)[:k]
            assert repo.top_samples("tpcc", k) == expected

    def test_unknown_workload_is_empty(self):
        assert WorkloadRepository().top_samples("nope", 3) == []

