"""Unit tests for the workload generator base and batches."""

import pytest

from repro.workloads.generator import MixWorkload, WorkloadBatch
from repro.workloads.query import QueryFamily, QueryFootprint, QueryType


def _families():
    return [
        QueryFamily(
            "read", QueryType.SELECT, "SELECT %s", 3.0, QueryFootprint(), ("int",)
        ),
        QueryFamily(
            "write",
            QueryType.INSERT,
            "INSERT %s",
            1.0,
            QueryFootprint(write_kb=4.0),
            ("int",),
        ),
    ]


def _workload(rps=100.0, seed=0):
    return MixWorkload("mix", _families(), rps=rps, data_size_gb=1.0, seed=seed)


class TestBatchGeneration:
    def test_total_near_poisson_mean(self):
        batch = _workload(rps=100.0, seed=1).batch(60.0)
        assert 5000 < batch.total_queries < 7000

    def test_weights_respected(self):
        batch = _workload(rps=500.0, seed=2).batch(60.0)
        ratio = batch.counts["read"] / max(batch.counts["write"], 1)
        assert 2.3 < ratio < 3.9

    def test_zero_rps_empty_batch(self):
        batch = _workload(rps=0.0).batch(10.0)
        assert batch.total_queries == 0
        assert len(batch.sampled_queries) == 0

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            _workload().batch(0.0)

    def test_sample_size_respected(self):
        wl = MixWorkload(
            "mix", _families(), rps=1000.0, data_size_gb=1.0, seed=0, sample_size=50
        )
        batch = wl.batch(60.0)
        assert len(batch.sampled_queries) == 50

    def test_deterministic_given_seed(self):
        b1 = _workload(seed=5).batch(30.0)
        b2 = _workload(seed=5).batch(30.0)
        assert b1.counts == b2.counts


class TestWorkloadBatch:
    def test_write_fraction(self):
        fams = {f.name: f for f in _families()}
        batch = WorkloadBatch("w", 10.0, 10.0, {"read": 75, "write": 25}, fams)
        assert batch.write_fraction == pytest.approx(0.25)

    def test_write_fraction_empty(self):
        fams = {f.name: f for f in _families()}
        batch = WorkloadBatch("w", 10.0, 0.0, {"read": 0, "write": 0}, fams)
        assert batch.write_fraction == 0.0

    def test_count_by_type(self):
        fams = {f.name: f for f in _families()}
        batch = WorkloadBatch("w", 10.0, 10.0, {"read": 7, "write": 3}, fams)
        by_type = batch.count_by_type()
        assert by_type[QueryType.SELECT] == 7
        assert by_type[QueryType.INSERT] == 3

    def test_scaled(self):
        fams = {f.name: f for f in _families()}
        batch = WorkloadBatch("w", 10.0, 10.0, {"read": 100, "write": 10}, fams)
        half = batch.scaled(0.5)
        assert half.counts == {"read": 50, "write": 5}
        assert half.requested_rps == 5.0

    def test_scaled_negative_rejected(self):
        fams = {f.name: f for f in _families()}
        batch = WorkloadBatch("w", 10.0, 10.0, {"read": 1, "write": 1}, fams)
        with pytest.raises(ValueError):
            batch.scaled(-1.0)


class TestValidation:
    def test_no_families_rejected(self):
        with pytest.raises(ValueError, match="no query families"):
            MixWorkload("m", [], rps=1.0, data_size_gb=1.0)

    def test_negative_rps_rejected(self):
        with pytest.raises(ValueError):
            MixWorkload("m", _families(), rps=-1.0, data_size_gb=1.0)

    def test_zero_data_size_rejected(self):
        with pytest.raises(ValueError):
            MixWorkload("m", _families(), rps=1.0, data_size_gb=0.0)
