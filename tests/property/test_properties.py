"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import percentile
from repro.core.tde.entropy import normalized_entropy
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.fig05_disk_latency import resample_mean
from repro.tuners.base import config_to_vector, vector_to_config
from repro.tuners.gpr import GaussianProcessRegressor
from repro.workloads.sampling import ReservoirSampler
from repro.workloads.templating import make_template
from tests.reference import resample_mean_by_series

_CATALOG = postgres_catalog()

counts = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=0, max_size=20
)


class TestEntropyProperties:
    @given(counts)
    def test_entropy_in_unit_interval(self, values):
        h = normalized_entropy(values)
        assert 0.0 <= h <= 1.0 + 1e-12

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=20))
    def test_uniform_maximises(self, values):
        uniform = [1.0] * len(values)
        assert normalized_entropy(uniform) >= normalized_entropy(values) - 1e-9

    @given(st.floats(min_value=0.01, max_value=1e6), st.integers(2, 12))
    def test_scale_invariance(self, scale, n):
        base = list(range(1, n + 1))
        scaled = [scale * b for b in base]
        assert normalized_entropy(base) == np.float64(
            normalized_entropy(scaled)
        ).item() or math.isclose(
            normalized_entropy(base), normalized_entropy(scaled), rel_tol=1e-9
        )

    @given(counts)
    def test_permutation_invariance(self, values):
        shuffled = list(reversed(values))
        assert math.isclose(
            normalized_entropy(values),
            normalized_entropy(shuffled),
            rel_tol=1e-9,
            abs_tol=1e-12,
        )


class TestReservoirProperties:
    @given(st.integers(1, 30), st.integers(0, 200), st.integers(0, 2**31 - 1))
    def test_size_invariant(self, capacity, n, seed):
        r = ReservoirSampler(capacity, seed=seed)
        for item in range(n):
            r.observe(item)
        assert len(r.sample) == min(capacity, n)
        assert r.seen == n

    @given(st.integers(1, 30), st.integers(0, 200), st.integers(0, 2**31 - 1))
    def test_sample_subset_of_stream(self, capacity, n, seed):
        r = ReservoirSampler(capacity, seed=seed)
        for item in range(n):
            r.observe(item)
        assert set(r.sample) <= set(range(n))

    @given(st.integers(1, 30), st.integers(0, 200), st.integers(0, 2**31 - 1))
    def test_no_duplicates_for_distinct_stream(self, capacity, n, seed):
        r = ReservoirSampler(capacity, seed=seed)
        for item in range(n):
            r.observe(item)
        assert len(r.sample) == len(set(r.sample))


knob_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=len(_CATALOG),
    max_size=len(_CATALOG),
)


class TestConfigProperties:
    @given(knob_vectors)
    def test_vector_roundtrip(self, vec):
        config = vector_to_config(np.array(vec), _CATALOG)
        back = config_to_vector(config)
        assert np.allclose(back, np.clip(vec, 0.0, 1.0), atol=1e-9)

    @given(knob_vectors, st.floats(min_value=300.0, max_value=20_000.0),
           st.integers(1, 64))
    def test_fitted_to_budget_always_fits(self, vec, limit, connections):
        config = vector_to_config(np.array(vec), _CATALOG)
        fitted = config.fitted_to_budget(limit, connections)
        floors = {
            k.name: k.min_value
            for k in _CATALOG.memory_budget_knobs()
            if k.name != "shared_buffers"
        }
        # Either it fits the (headroomed) budget, or every non-buffer
        # memory knob is pinned at its minimum and the budget is simply
        # impossible for this catalog.
        footprint = fitted.memory_footprint_mb(connections)
        at_floor = all(
            fitted[name] <= floor + 1e-9 for name, floor in floors.items()
        )
        assert footprint <= limit * 0.95 + 1e-6 or at_floor

    @given(knob_vectors)
    def test_all_values_within_ranges(self, vec):
        config = vector_to_config(np.array(vec), _CATALOG)
        for knob in _CATALOG:
            assert knob.min_value <= config[knob.name] <= knob.max_value


class TestFig05ResampleMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        start=st.one_of(
            st.integers(-1000, 1000).map(float), st.floats(-1e4, 1e4)
        ),
        # Mostly per-second samples, which fill buckets and land on their
        # edges; steps of 0 repeat a timestamp; long steps leave empty
        # buckets.
        steps=st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 25.0, 90.0]),
                st.floats(min_value=0.0, max_value=3.0),
            ),
            max_size=120,
        ),
        n_dropped=st.integers(0, 3),
        bucket=st.one_of(st.integers(1, 20).map(float), st.floats(1.0, 20.0)),
        value_seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_reference(self, start, steps, n_dropped, bucket, value_seed):
        times = start + np.cumsum(np.array([0.0] + steps))
        times = times[: max(0, len(times) - n_dropped)]
        # Latency-like values with full mantissas, so a bucket mean summed
        # in another order shows up as a different float.
        values = np.random.default_rng(value_seed).lognormal(2.0, 0.5, len(times))
        starts, means = resample_mean(times, values, bucket)
        expected = resample_mean_by_series(times, values, bucket)
        assert len(starts) == len(means)
        assert [(t.hex(), m.hex()) for t, m in zip(starts, means)] == [
            (t.hex(), m.hex()) for t, m in expected
        ]


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=60),
           st.floats(min_value=0.0, max_value=100.0))
    def test_percentile_within_range(self, values, q):
        p = percentile(values, q)
        assert min(values) - 1e-6 <= p <= max(values) + 1e-6


class TestTemplatingProperties:
    sql_texts = st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Zs"),
                               whitelist_characters="=*,()'._"),
        min_size=1,
        max_size=80,
    )

    @given(sql_texts)
    def test_template_idempotent(self, sql):
        once = make_template(sql)
        twice = make_template(once)
        assert once == twice

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    def test_parameter_values_never_survive(self, a, b):
        t1 = make_template(f"SELECT * FROM t WHERE a = {a} AND b = {b}")
        t2 = make_template("SELECT * FROM t WHERE a = 0 AND b = 1")
        assert t1 == t2


class TestGPRProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 25), st.integers(0, 2**31 - 1))
    def test_posterior_mean_finite_and_std_nonnegative(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, size=(n, 3))
        y = rng.normal(size=n)
        gpr = GaussianProcessRegressor().fit(x, y)
        grid = rng.uniform(0, 1, size=(10, 3))
        mean, std = gpr.predict(grid, return_std=True)
        assert np.isfinite(mean).all()
        assert (std >= 0).all()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 25), st.integers(0, 2**31 - 1))
    def test_ucb_monotone_in_kappa(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, size=(n, 2))
        y = rng.normal(size=n)
        gpr = GaussianProcessRegressor().fit(x, y)
        grid = rng.uniform(0, 1, size=(8, 2))
        assert np.all(gpr.ucb(grid, 2.0) >= gpr.ucb(grid, 1.0) - 1e-9)
