"""Unit tests for reservoir sampling."""

import pytest

from repro.workloads.sampling import ReservoirSampler


def _offer(reservoir, items):
    for item in items:
        reservoir.observe(item)


class TestReservoirBasics:
    def test_fills_to_capacity(self):
        r = ReservoirSampler(5, seed=0)
        _offer(r, range(3))
        assert sorted(r.sample) == [0, 1, 2]

    def test_capacity_bound(self):
        r = ReservoirSampler(5, seed=0)
        _offer(r, range(100))
        assert len(r.sample) == 5
        assert r.seen == 100

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0)

    def test_sample_is_copy(self):
        r = ReservoirSampler(3, seed=0)
        _offer(r, range(3))
        r.sample.append(99)
        assert 99 not in r.sample


class TestReservoirUniformity:
    def test_roughly_uniform_inclusion(self):
        """Every item should appear with probability ~k/n across trials."""
        n, k, trials = 50, 10, 400
        counts = [0] * n
        for t in range(trials):
            r = ReservoirSampler(k, seed=t)
            _offer(r, range(n))
            for item in r.sample:
                counts[item] += 1
        expected = trials * k / n  # = 80
        for c in counts:
            assert 0.5 * expected < c < 1.6 * expected

    def test_late_items_can_enter(self):
        r = ReservoirSampler(10, seed=1)
        _offer(r, range(1000))
        assert any(item >= 500 for item in r.sample)
