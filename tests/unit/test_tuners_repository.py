"""Unit tests for the central workload repository."""

import pickle

from repro.dbsim.config import KnobConfiguration
from repro.dbsim.metrics import MetricsDelta
from repro.tuners import TrainingSample, WorkloadMapper, WorkloadRepository


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
        assert ds.metrics.shape == (2, len(repo.metric_names))
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
