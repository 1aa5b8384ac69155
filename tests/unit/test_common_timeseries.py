"""Unit tests for repro.common.timeseries."""

import pytest

from repro.common.timeseries import TimeSeries


def series(pairs):
    ts = TimeSeries("t")
    ts.extend(pairs)
    return ts


class TestAppend:
    def test_append_and_len(self):
        ts = series([(0, 1.0), (1, 2.0)])
        assert len(ts) == 2

    def test_rejects_non_monotonic(self):
        ts = series([(5, 1.0)])
        with pytest.raises(ValueError, match="non-monotonic"):
            ts.append(4, 2.0)

    def test_allows_equal_timestamps(self):
        ts = series([(5, 1.0)])
        ts.append(5, 2.0)
        assert len(ts) == 2

    def test_iteration_yields_pairs(self):
        ts = series([(0, 1.0), (2, 3.0)])
        assert list(ts) == [(0.0, 1.0), (2.0, 3.0)]


class TestReductions:
    def test_mean(self):
        assert series([(0, 2.0), (1, 4.0)]).mean() == 3.0

    def test_mean_empty_is_zero(self):
        assert TimeSeries("x").mean() == 0.0

    def test_max(self):
        assert series([(0, 2.0), (1, 9.0), (2, 4.0)]).max() == 9.0


class TestResample:
    def test_resample_mean_buckets(self):
        ts = series([(0, 1.0), (1, 3.0), (2, 5.0), (3, 7.0)])
        out = ts.resample_mean(2.0)
        assert out.values.tolist() == [2.0, 6.0]

    def test_resample_preserves_name(self):
        ts = series([(0, 1.0)])
        assert ts.resample_mean(10.0).name == ts.name

    def test_resample_with_gap(self):
        ts = series([(0, 2.0), (10, 4.0)])
        out = ts.resample_mean(2.0)
        assert len(out) == 2
        assert out.values.tolist() == [2.0, 4.0]
