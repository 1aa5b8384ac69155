"""Unit tests for the disk model."""

import numpy as np
import pytest

from repro.common.hardware import HDD, SSD
from repro.dbsim.storage import simulate_device


def _device(write_mb_s, seconds=10, disk=SSD, rng=None):
    """One member's device under a constant write demand at 8 KB per IO."""
    mb_s = np.full((1, seconds), float(write_mb_s))
    return simulate_device(
        [disk], mb_s, mb_s / (8.0 / 1024.0), [1.0], None if rng is None else [rng]
    )[0]


def _fields(result):
    return [
        a.tobytes() for a in (result.read_latency, result.write_latency, result.iops)
    ]


class TestDiskSimulator:
    """:func:`simulate_device`, the disk model's one entry point."""

    def test_idle_latency_is_base(self):
        result = _device(0.0, seconds=5)
        assert np.mean(result.write_latency) == pytest.approx(SSD.base_latency_ms)

    def test_latency_rises_with_load(self):
        light = _device(10.0)
        heavy = _device(200.0)
        assert np.mean(heavy.write_latency) > np.mean(light.write_latency)

    def test_utilisation_capped(self):
        result = _device(10_000.0)
        # M/M/1 latency at the 0.97 utilisation cap, with no jitter.
        capped = SSD.base_latency_ms * (1.0 + 0.97 / (1.0 - 0.97))
        assert np.max(result.write_latency) == pytest.approx(capped)
        assert np.isfinite(result.write_latency).all()

    def test_hdd_slower_than_ssd(self):
        hdd = _device(20.0, disk=HDD)
        ssd = _device(20.0, disk=SSD)
        assert np.mean(hdd.write_latency) > np.mean(ssd.write_latency)

    def test_read_latency_below_write_under_load(self):
        result = _device(150.0)
        assert np.mean(result.read_latency) < np.mean(result.write_latency)

    def test_noise_reproducible(self):
        a = _device(50.0, rng=np.random.default_rng(1))
        b = _device(50.0, rng=np.random.default_rng(1))
        assert a.write_latency.tolist() == b.write_latency.tolist()
        assert a.write_latency.tolist() != _device(50.0).write_latency.tolist()

    def test_series_timestamps_offset(self):
        # Sample i of every array is second i of the window, i.e. the
        # window's start_time_s + i: it follows demand column i.
        mb_s = np.array([[1.0, 2.0, 3.0]])
        (result,) = simulate_device([SSD], mb_s, mb_s * 10.0, [1.0])
        assert result.iops.tolist() == [10.0, 20.0, 30.0]
        for values in (result.read_latency, result.write_latency, result.iops):
            assert values.dtype == np.float64
            assert values.shape == (3,)
        assert result.write_latency[0] < result.write_latency[1] < result.write_latency[2]

    def test_iops_series_reports_demand(self):
        result = _device(8.0, seconds=4)  # 1024 write IOPS at 8 KB pages
        assert np.mean(result.iops) == pytest.approx(1024.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            simulate_device([SSD], np.zeros((1, 3)), np.zeros((1, 4)), [1.0])

    def test_degradation_scales_latency_exactly(self):
        healthy = _device(50.0).write_latency
        mb_s = np.full((1, 10), 50.0)
        (degraded,) = simulate_device([SSD], mb_s, mb_s / (8.0 / 1024.0), [1.5])
        assert degraded.write_latency.tolist() == (healthy * 1.5).tolist()

    def test_rows_are_independent_members(self):
        mb_s = np.array([[0.0] * 5, [200.0] * 5])
        iops = mb_s / (64.0 / 1024.0)
        both = simulate_device([SSD, HDD], mb_s, iops, [1.0, 1.0])
        alone = simulate_device([HDD], mb_s[1:], iops[1:], [1.0])
        assert np.mean(both[0].write_latency) == pytest.approx(SSD.base_latency_ms)
        assert _fields(both[1]) == _fields(alone[0])
