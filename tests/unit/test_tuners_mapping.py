"""Unit tests for OtterTune-style workload mapping."""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.dbsim.config import KnobConfiguration
from repro.dbsim.metrics import MetricsDelta
from repro.tuners import TrainingSample, WorkloadMapper, WorkloadRepository
from repro.tuners.repository import WorkloadDataset


def _populate(repo, pg_catalog, wid, tps_base, n=8, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        work_mem = float(rng.uniform(4, 512))
        metrics = MetricsDelta(
            {
                "throughput_tps": tps_base + work_mem * 0.1,
                "wal_mb": tps_base * 3.0,
                "blks_read": tps_base * 10.0,
            }
        )
        repo.add(
            TrainingSample(
                wid, KnobConfiguration(pg_catalog, {"work_mem": work_mem}), metrics
            )
        )


class TestMapping:
    def test_maps_to_similar_workload(self, pg_catalog):
        repo = WorkloadRepository()
        _populate(repo, pg_catalog, "target", tps_base=100.0, seed=1)
        _populate(repo, pg_catalog, "twin", tps_base=105.0, seed=2)
        _populate(repo, pg_catalog, "stranger", tps_base=9000.0, seed=3)
        mapping = WorkloadMapper(repo).map_workload("target")
        assert mapping.mapped
        assert mapping.best_workload_id == "twin"

    def test_excludes_target_by_default(self, pg_catalog):
        repo = WorkloadRepository()
        _populate(repo, pg_catalog, "target", 100.0)
        _populate(repo, pg_catalog, "other", 5000.0)
        mapping = WorkloadMapper(repo).map_workload("target")
        assert mapping.best_workload_id == "other"

    def test_can_include_target(self, pg_catalog):
        repo = WorkloadRepository()
        _populate(repo, pg_catalog, "target", 100.0)
        mapping = WorkloadMapper(repo).map_workload("target", exclude_target=False)
        assert mapping.best_workload_id == "target"

    def test_unknown_target_unmapped(self, pg_catalog):
        repo = WorkloadRepository()
        _populate(repo, pg_catalog, "other", 100.0)
        mapping = WorkloadMapper(repo).map_workload("missing")
        assert not mapping.mapped

    def test_empty_repo_unmapped(self):
        mapping = WorkloadMapper(WorkloadRepository()).map_workload("x")
        assert mapping.best_workload_id is None

    def test_nbins_validation(self):
        with pytest.raises(ValueError):
            WorkloadMapper(WorkloadRepository(), n_bins=1)


@pytest.fixture
def computes(monkeypatch):
    """Every mapping ("map") and decile-edge ("edges") compute, in order."""
    calls = []
    map_workload = WorkloadMapper._map_workload
    compute_edges = WorkloadMapper._compute_edges

    def spy_map(self, target_id, exclude_target):
        calls.append("map")
        return map_workload(self, target_id, exclude_target)

    def spy_edges(self):
        calls.append("edges")
        return compute_edges(self)

    monkeypatch.setattr(WorkloadMapper, "_map_workload", spy_map)
    monkeypatch.setattr(WorkloadMapper, "_compute_edges", spy_edges)
    return calls


class TestMappingCache:
    """Cluster-assignment results are version-keyed on the repository.

    Each fixture holds three workloads: with only one candidate beside
    the target, the mapping returns it without edges or scores.
    """

    def test_repeat_mapping_served_from_cache(self, pg_catalog, computes):
        repo = WorkloadRepository()
        _populate(repo, pg_catalog, "target", 100.0, seed=1)
        _populate(repo, pg_catalog, "twin", 105.0, seed=2)
        _populate(repo, pg_catalog, "stranger", 9000.0, seed=3)
        mapper = WorkloadMapper(repo)
        first = mapper.map_workload("target")
        second = mapper.map_workload("target")
        mapper.map_workload("target")
        assert first is second  # identical object: no recompute happened
        assert computes == ["map", "edges"]  # one compute per version

    def test_new_sample_invalidates_mapping(self, pg_catalog, computes):
        repo = WorkloadRepository()
        _populate(repo, pg_catalog, "target", 100.0, seed=1)
        _populate(repo, pg_catalog, "twin", 105.0, seed=2)
        _populate(repo, pg_catalog, "stranger", 9000.0, seed=3)
        mapper = WorkloadMapper(repo)
        first = mapper.map_workload("target")
        _populate(repo, pg_catalog, "target", 100.0, n=1, seed=9)
        second = mapper.map_workload("target")
        assert first is not second
        assert second.mapped
        _populate(repo, pg_catalog, "twin", 105.0, n=1, seed=10)
        mapper.map_workload("target")
        assert computes == ["map", "edges"] * 3  # a recompute on every bump

    def test_mappers_share_cache_through_repository(self, pg_catalog, computes):
        """Every TDE's mapper over one store reuses the same results."""
        repo = WorkloadRepository()
        _populate(repo, pg_catalog, "target", 100.0, seed=1)
        _populate(repo, pg_catalog, "twin", 105.0, seed=2)
        _populate(repo, pg_catalog, "stranger", 9000.0, seed=3)
        first = WorkloadMapper(repo).map_workload("target")
        second = WorkloadMapper(repo).map_workload("target")
        assert first is second
        WorkloadMapper(repo).map_workload("target", exclude_target=False)
        assert computes == ["map", "edges", "map"]

    def test_distinct_nbins_do_not_share_entries(self, pg_catalog):
        repo = WorkloadRepository()
        _populate(repo, pg_catalog, "target", 100.0, seed=1)
        _populate(repo, pg_catalog, "twin", 105.0, seed=2)
        coarse = WorkloadMapper(repo, n_bins=4).map_workload("target")
        fine = WorkloadMapper(repo, n_bins=10).map_workload("target")
        assert coarse is not fine
        assert coarse.best_workload_id == fine.best_workload_id == "twin"

    def test_exclude_flag_keyed_separately(self, pg_catalog):
        repo = WorkloadRepository()
        _populate(repo, pg_catalog, "target", 100.0, seed=1)
        _populate(repo, pg_catalog, "twin", 105.0, seed=2)
        mapper = WorkloadMapper(repo)
        excluded = mapper.map_workload("target", exclude_target=True)
        included = mapper.map_workload("target", exclude_target=False)
        assert excluded.best_workload_id == "twin"
        assert included.best_workload_id == "target"


def _fresh_mapping(repo, target_id, exclude_target):
    """What a mapper with no cached state maps over a copy of *repo*."""
    copy = pickle.loads(pickle.dumps(repo))
    copy.derived_cache.clear()
    return WorkloadMapper(copy).map_workload(target_id, exclude_target)


class TestExactMapping:
    """A mapping is a pure function of the repository at every scale."""

    def test_shared_entries_are_never_served_stale(self, pg_catalog):
        # Past 4,000 rows (where shared entries were once served stale)
        # and with a target past the mapping window, one new candidate
        # sample at the target's configuration flips the mapping; both
        # mappers over the store must see the flip on their next call.
        repo = WorkloadRepository()
        rng = np.random.default_rng(0)

        def add(wid, work_mem, tps):
            metrics = {"throughput_tps": tps, "wal_mb": tps * 3.0,
                       "blks_read": tps * 10.0}
            repo.add(TrainingSample(
                wid, KnobConfiguration(pg_catalog, {"work_mem": work_mem}),
                MetricsDelta(metrics),
            ))

        for _ in range(4100):
            add("target", 256.0, 100.0 + rng.normal())
        for i in range(8):
            add("near", 200.0, 120.0 + i)
            add("far", 8.0, 9000.0 + i)
        first, second = WorkloadMapper(repo), WorkloadMapper(repo)
        before = _fresh_mapping(repo, "target", True)
        for exclude in (True, False):
            assert first.map_workload("target", exclude) == _fresh_mapping(
                repo, "target", exclude
            )
        add("far", 256.0, 100.0)
        assert _fresh_mapping(repo, "target", True) != before
        for mapper in (second, first):
            for exclude in (True, False):
                assert mapper.map_workload("target", exclude) == _fresh_mapping(
                    repo, "target", exclude
                )


def _full_mapping(repo, target_id, exclude_target):
    """The mapping with edges and a score for every candidate, however few."""
    mapper = WorkloadMapper(repo)
    target = mapper._capped(repo.dataset(target_id))
    edges = mapper._compute_edges()
    if target.size == 0 or edges is None:
        return None
    target_binned = mapper._binned(target.metrics, edges)
    scores = {
        wid: mapper._score(
            target, target_binned, mapper._capped(repo.dataset(wid)), edges
        )
        for wid in repo.workload_ids()
        if repo.sample_count(wid) and not (exclude_target and wid == target_id)
    }
    return min(scores, key=scores.get) if scores else None


class TestSingleCandidate:
    """With one candidate the mapping returns it without edges or scores."""

    @pytest.mark.parametrize(
        "workloads, exclude_target",
        [
            ({"target": 8, "other": 8}, True),
            ({"target": 1, "other": 1}, True),
            ({"target": 600, "other": 3}, True),
            ({"target": 8}, False),
        ],
    )
    def test_shortcut_matches_full_mapping(
        self, pg_catalog, monkeypatch, workloads, exclude_target
    ):
        repo = WorkloadRepository()
        for seed, (wid, n) in enumerate(workloads.items()):
            _populate(repo, pg_catalog, wid, 100.0 + 50.0 * seed, n=n, seed=seed)
        expected = _full_mapping(repo, "target", exclude_target)
        assert expected is not None
        calls = []
        for name in ("_compute_edges", "_score"):
            monkeypatch.setattr(
                WorkloadMapper, name, lambda *a, name=name: calls.append(name)
            )
        mapping = WorkloadMapper(repo).map_workload("target", exclude_target)
        assert mapping.best_workload_id == expected
        assert calls == []

    def test_lone_single_sample_target_stays_unmapped(self, pg_catalog):
        repo = WorkloadRepository()
        _populate(repo, pg_catalog, "target", 100.0, n=1)
        assert _full_mapping(repo, "target", False) is None
        mapping = WorkloadMapper(repo).map_workload("target", exclude_target=False)
        assert not mapping.mapped

    def test_two_candidates_still_scored(self, pg_catalog, computes):
        repo = WorkloadRepository()
        _populate(repo, pg_catalog, "target", 100.0, seed=1)
        _populate(repo, pg_catalog, "twin", 105.0, seed=2)
        mapping = WorkloadMapper(repo).map_workload("target", exclude_target=False)
        assert computes == ["map", "edges"]
        assert mapping.best_workload_id == _full_mapping(repo, "target", False)


class TestScoreMemory:
    def test_fleet_shaped_self_score_peak_under_2_5_mb(self):
        # The bgwriter detector's self-inclusive mapping scores a full
        # 500-row window against itself. The 500 x 500 cross term is 2 MB;
        # the distance rows go through one 64-row buffer beside it, where
        # a full distance matrix would hold 2 MB more.
        rng = np.random.default_rng(3)
        target = WorkloadDataset(
            "production",
            rng.uniform(size=(500, 14)),
            rng.lognormal(size=(500, 25)),
            rng.uniform(size=500),
        )
        mapper = WorkloadMapper(WorkloadRepository())
        edges = np.quantile(target.metrics, np.linspace(0.0, 1.0, 11)[1:-1], axis=0)
        binned = mapper._binned(target.metrics, edges)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mapper._score(target, binned, target, edges)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6
