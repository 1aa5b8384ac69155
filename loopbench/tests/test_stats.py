"""The p90 sample-count rule and the run-size floor."""

import pytest

from loopbench.run import MIN_WINDOW_SAMPLES, windows_per_rep
from loopbench.stats import quartiles, samples_beyond, tail_percentile


def test_p90_needs_ten_samples_beyond():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert tail_percentile([float(i) for i in range(1, 101)], 0.9) == 90.0
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile([float(i) for i in range(99)], 0.9)


def test_median_is_nearest_rank():
    assert tail_percentile([3.0, 1.0, 2.0] * 10, 0.5) == 2.0
    assert samples_beyond(30, 0.5) == 15


def test_rule_can_be_waived_for_small_per_layer_samples():
    assert tail_percentile([5.0, 7.0], 0.9, min_beyond=0) == 7.0
    with pytest.raises(ValueError):
        tail_percentile([], 0.5)


def test_quartiles_match_statistics_module():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


@pytest.mark.parametrize("reps", [1, 2, 3])
def test_run_size_keeps_ten_windows_beyond_p90(reps):
    for seconds in (1, 5, 20, 60):
        pooled = reps * windows_per_rep(seconds, 4.0, reps)
        assert pooled >= MIN_WINDOW_SAMPLES
        assert samples_beyond(pooled, 0.9) >= 10


def test_run_size_grows_with_seconds():
    assert windows_per_rep(60, 5.0, 3) == 100
    assert windows_per_rep(20, 5.0, 3) == 34
