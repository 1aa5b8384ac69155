"""Unit tests for the central workload repository."""

import gc
import pickle
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim.config import KnobConfiguration
from repro.dbsim.knobs import postgres_catalog
from repro.dbsim.metrics import METRIC_NAMES, MetricsDelta
from repro.tuners import TrainingSample, WorkloadMapper, WorkloadRepository
from repro.tuners.base import config_to_vector


def _sample(pg_catalog, wid="w0", tps=10.0, work_mem=4.0):
    return TrainingSample(
        wid,
        KnobConfiguration(pg_catalog, {"work_mem": work_mem}),
        MetricsDelta({"throughput_tps": tps, "wal_mb": tps * 2}),
    )


class TestStorage:
    def test_add_and_fetch(self, pg_catalog):
        repo = WorkloadRepository()
        repo.add(_sample(pg_catalog))
        assert repo.workload_ids() == ["w0"]
        assert repo.total_samples() == 1

    def test_unknown_workload_empty(self):
        repo = WorkloadRepository()
        assert repo.samples("nope") == []
        assert repo.dataset("nope").size == 0

    def test_dataset_matrices(self, pg_catalog):
        repo = WorkloadRepository()
        repo.add(_sample(pg_catalog, tps=1.0, work_mem=4))
        repo.add(_sample(pg_catalog, tps=2.0, work_mem=64))
        ds = repo.dataset("w0")
        assert ds.configs.shape == (2, len(pg_catalog))
        assert ds.metrics.shape == (2, len(METRIC_NAMES))
        assert ds.objective.tolist() == [1.0, 2.0]

    def test_all_metric_rows(self, pg_catalog):
        repo = WorkloadRepository()
        repo.add(_sample(pg_catalog, "a"))
        repo.add(_sample(pg_catalog, "b"))
        assert repo.all_metric_rows().shape[0] == 2


class TestDerivedCache:
    """Derived state lives on the repository as ``(version, payload)``."""

    @staticmethod
    def _counted_edges(monkeypatch):
        calls = []
        compute_edges = WorkloadMapper._compute_edges

        def spy(self):
            calls.append(1)
            return compute_edges(self)

        monkeypatch.setattr(WorkloadMapper, "_compute_edges", spy)
        return calls

    def test_derived_entry_computes_once_per_version(self, pg_catalog, monkeypatch):
        repo = WorkloadRepository()
        repo.add(_sample(pg_catalog))
        repo.add(_sample(pg_catalog, wid="w1", tps=20.0))
        # A third workload, so the mapping of w0 has two candidates to
        # score and reaches the edge cache.
        repo.add(_sample(pg_catalog, wid="w2", tps=40.0))
        calls = self._counted_edges(monkeypatch)
        mapper = WorkloadMapper(repo)
        first = mapper.map_workload("w0")
        second = mapper.map_workload("w0")
        assert first is second
        assert len(calls) == 1
        entries = repo.derived_cache[("mapper", mapper.n_bins)]
        assert entries[("map", "w0", True)] == (repo.version, first)

    def test_derived_entry_invalidates_on_version_bump(self, pg_catalog, monkeypatch):
        repo = WorkloadRepository()
        repo.add(_sample(pg_catalog))
        repo.add(_sample(pg_catalog, wid="w1", tps=20.0))
        # A third workload, so the mapping of w0 has two candidates to
        # score and reaches the edge cache.
        repo.add(_sample(pg_catalog, wid="w2", tps=40.0))
        calls = self._counted_edges(monkeypatch)
        mapper = WorkloadMapper(repo)
        mapper.map_workload("w0")
        repo.add(_sample(pg_catalog, tps=20.0))
        mapper.map_workload("w0")
        assert len(calls) == 2
        entries = repo.derived_cache[("mapper", mapper.n_bins)]
        assert entries["edges"][0] == repo.version

    def test_derived_cache_shared_across_consumers(self, pg_catalog):
        repo = WorkloadRepository()
        ns_a = repo.derived_cache.setdefault(("consumer", 1), {})
        ns_b = repo.derived_cache.setdefault(("consumer", 1), {})
        assert ns_a is ns_b
        other = repo.derived_cache.setdefault(("consumer", 2), {})
        assert other is not ns_a


class TestSync:
    def test_sync_pulls_missing(self, pg_catalog):
        src = WorkloadRepository()
        dst = WorkloadRepository()
        src.add(_sample(pg_catalog, "a"))
        src.add(_sample(pg_catalog, "a", tps=2.0))
        before = dst.version
        assert dst.sync_from(src) == 2
        assert dst.total_samples() == 2
        assert dst.version == before + 2

    def test_sync_is_incremental(self, pg_catalog, monkeypatch):
        src = WorkloadRepository()
        dst = WorkloadRepository()
        src.add(_sample(pg_catalog, "a"))
        src.add(_sample(pg_catalog, "b", tps=20.0))
        # A third workload, so the mapping of a has two candidates to
        # score and reaches the edge cache.
        src.add(_sample(pg_catalog, "c", tps=40.0))
        dst.sync_from(src)
        calls = TestDerivedCache._counted_edges(monkeypatch)
        mapper = WorkloadMapper(dst)
        mapper.map_workload("a")
        src.add(_sample(pg_catalog, "b", tps=3.0, work_mem=64.0))
        before = dst.version
        assert dst.sync_from(src) == 1
        assert dst.total_samples() == 4
        assert dst.version == before + 1
        # A mapper sharing dst's derived cache must not serve the
        # pre-sync mapping: the sync invalidates it.
        after = mapper.map_workload("a")
        assert len(calls) == 2
        fresh = pickle.loads(pickle.dumps(dst))
        fresh.derived_cache.clear()
        assert after == WorkloadMapper(fresh).map_workload("a")

    def test_sync_noop_when_current(self, pg_catalog):
        src = WorkloadRepository()
        dst = WorkloadRepository()
        src.add(_sample(pg_catalog))
        dst.sync_from(src)
        assert dst.sync_from(src) == 0


_CATALOG = postgres_catalog()


def _fleet_sample(rng, wid: str, timestamp_s: float) -> TrainingSample:
    """A sample shaped like a fleet member's: every knob and metric set."""
    values = {
        knob.name: knob.min_value + u * (knob.max_value - knob.min_value)
        for knob, u in zip(_CATALOG, rng.uniform(size=len(_CATALOG)).tolist())
    }
    metrics = dict(zip(METRIC_NAMES, rng.lognormal(size=len(METRIC_NAMES)).tolist()))
    return TrainingSample(
        wid, KnobConfiguration(_CATALOG, values), MetricsDelta(metrics), timestamp_s
    )


def _matrices(repo: WorkloadRepository, wid: str) -> tuple[bytes, ...]:
    ds = repo.dataset(wid)
    return ds.configs.tobytes(), ds.metrics.tobytes(), ds.objective.tobytes()


class TestRowsOnly:
    """Samples live as matrix rows; every read rebuilds what was added."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        workloads=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40),
        tied=st.lists(st.sampled_from([5, 10.0, 10.5]), min_size=40, max_size=40),
    )
    def test_every_read_matches_the_added_samples(self, seed, workloads, tied):
        rng = np.random.default_rng(seed)
        added: dict[str, list[TrainingSample]] = {}
        repo = WorkloadRepository()
        for i, wid in enumerate(workloads):
            sample = _fleet_sample(rng, wid, float(i))
            if i % 2:
                # Tied objectives, an int among them, and an int timestamp.
                metrics = dict(sample.metrics.values, throughput_tps=tied[i])
                sample = TrainingSample(wid, sample.config, MetricsDelta(metrics), i)
            repo.add(sample)
            added.setdefault(wid, []).append(sample)
        assert repo.version == len(workloads)
        assert repo.workload_ids() == list(added)
        for wid, samples in added.items():
            rebuilt = repo.samples(wid)
            assert rebuilt == samples
            for sample in rebuilt:
                assert type(sample.timestamp_s) is float
                assert {type(v) for v in sample.config.as_dict().values()} == {float}
                assert {type(v) for v in sample.metrics.values.values()} == {float}
            for k in range(1, 12):
                expected = sorted(samples, key=lambda s: -s.objective)[:k]
                assert repo.top_samples(wid, k) == expected
            ds = repo.dataset(wid)
            assert _matrices(repo, wid) == (
                np.array([config_to_vector(s.config) for s in samples]).tobytes(),
                np.array([s.metrics.as_vector() for s in samples]).tobytes(),
                np.array([s.objective for s in samples], dtype=float).tobytes(),
            )
            assert ds.size == repo.sample_count(wid) == len(samples)

        copy = pickle.loads(pickle.dumps(repo))
        synced = WorkloadRepository()
        assert synced.sync_from(repo) == len(workloads)
        for other in (copy, synced):
            assert other.version == repo.version
            assert other.workload_ids() == repo.workload_ids()
            for wid in added:
                assert other.samples(wid) == repo.samples(wid)
                assert other.top_samples(wid, 11) == repo.top_samples(wid, 11)
                assert _matrices(other, wid) == _matrices(repo, wid)

    def test_fleet_shaped_sample_retains_under_600_bytes(self):
        # 630 rows: what 25 fig09 members grow the "production" workload
        # to over 6 h. The repository keeps rows, not sample objects, so
        # what a sample retains is its matrix rows (14 knobs twice, 25
        # metrics, objective, timestamp), the buffers' spare capacity and
        # a share of the workload's best few samples.
        rng = np.random.default_rng(7)
        count = 630
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            repo = WorkloadRepository()
            for i in range(count):
                repo.add(_fleet_sample(rng, "production", 300.0 * i))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert repo.total_samples() == count
        assert retained / count <= 600
