"""Unit tests for the disk model."""

import numpy as np
import pytest

from repro.common.hardware import HDD, SSD
from repro.dbsim.storage import simulate_device


def _device(write_mb_s, seconds=10, disk=SSD, start_time_s=0.0, rng=None):
    """One member's device under a constant write demand at 8 KB per IO."""
    mb_s = np.full((1, seconds), float(write_mb_s))
    return simulate_device(
        "data",
        [disk],
        mb_s,
        mb_s / (8.0 / 1024.0),
        [1.0],
        [start_time_s],
        None if rng is None else [rng],
    )[0]


class TestDiskSimulator:
    """:func:`simulate_device`, the disk model's one entry point."""

    def test_idle_latency_is_base(self):
        result = _device(0.0, seconds=5)
        assert result.write_latency.mean() == pytest.approx(SSD.base_latency_ms)

    def test_latency_rises_with_load(self):
        light = _device(10.0)
        heavy = _device(200.0)
        assert heavy.write_latency.mean() > light.write_latency.mean()

    def test_utilisation_capped(self):
        result = _device(10_000.0)
        # M/M/1 latency at the 0.97 utilisation cap, with no jitter.
        capped = SSD.base_latency_ms * (1.0 + 0.97 / (1.0 - 0.97))
        assert result.write_latency.values.max() == pytest.approx(capped)
        assert np.isfinite(result.write_latency.values).all()

    def test_hdd_slower_than_ssd(self):
        hdd = _device(20.0, disk=HDD)
        ssd = _device(20.0, disk=SSD)
        assert hdd.write_latency.mean() > ssd.write_latency.mean()

    def test_read_latency_below_write_under_load(self):
        result = _device(150.0)
        assert result.read_latency.mean() < result.write_latency.mean()

    def test_noise_reproducible(self):
        a = _device(50.0, rng=np.random.default_rng(1))
        b = _device(50.0, rng=np.random.default_rng(1))
        assert a.write_latency.values.tolist() == b.write_latency.values.tolist()
        assert a.write_latency.values.tolist() != _device(50.0).write_latency.values.tolist()

    def test_series_timestamps_offset(self):
        result = _device(1.0, seconds=3, start_time_s=100.0)
        assert result.iops.times.tolist() == [100.0, 101.0, 102.0]

    def test_iops_series_reports_demand(self):
        result = _device(8.0, seconds=4)  # 1024 write IOPS at 8 KB pages
        assert result.iops.mean() == pytest.approx(1024.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            simulate_device(
                "data", [SSD], np.zeros((1, 3)), np.zeros((1, 4)), [1.0], [0.0]
            )

    def test_degradation_scales_latency_exactly(self):
        healthy = _device(50.0).write_latency.values
        mb_s = np.full((1, 10), 50.0)
        degraded = simulate_device(
            "data", [SSD], mb_s, mb_s / (8.0 / 1024.0), [1.5], [0.0]
        )[0].write_latency.values
        assert degraded.tolist() == (healthy * 1.5).tolist()

    def test_rows_are_independent_members(self):
        mb_s = np.array([[0.0] * 5, [200.0] * 5])
        iops = mb_s / (64.0 / 1024.0)
        both = simulate_device("wal", [SSD, HDD], mb_s, iops, [1.0, 1.0], [0.0, 60.0])
        alone = simulate_device("wal", [HDD], mb_s[1:], iops[1:], [1.0], [60.0])
        assert both[0].write_latency.mean() == pytest.approx(SSD.base_latency_ms)
        assert repr(both[1]) == repr(alone[0])
        assert both[1].iops.name == "wal.iops"
