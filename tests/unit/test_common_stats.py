"""Unit tests for repro.common.stats."""

import pytest

from repro.common.stats import percentile


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_p99_of_uniform(self):
        values = list(range(101))
        assert percentile(values, 99) == pytest.approx(99.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
