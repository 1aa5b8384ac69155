"""Unit tests for the tuner base utilities (vectors, boosting)."""

import pickle

import numpy as np
import pytest

from repro.dbsim.config import KnobConfiguration
from repro.dbsim.metrics import MetricsDelta
from repro.tuners.base import (
    TuningRequest,
    boost_throttled_knobs,
    config_to_vector,
    vector_to_config,
)


class TestVectorEncoding:
    def test_roundtrip_defaults(self, pg_catalog):
        config = KnobConfiguration(pg_catalog)
        back = vector_to_config(config_to_vector(config), pg_catalog)
        for knob in pg_catalog:
            assert back[knob.name] == pytest.approx(config[knob.name], rel=1e-9)

    def test_log_scale_knobs_flagged(self, pg_catalog):
        assert pg_catalog.get("shared_buffers").log_scale
        assert pg_catalog.get("work_mem").log_scale
        assert not pg_catalog.get("checkpoint_completion_target").log_scale
        assert not pg_catalog.get("bgwriter_lru_maxpages").log_scale  # min 0

    def test_log_scaling_separates_small_values(self, pg_catalog):
        """16 MB vs 3 GB buffers must be far apart in tuning space."""
        small = KnobConfiguration(pg_catalog, {"shared_buffers": 16})
        big = KnobConfiguration(pg_catalog, {"shared_buffers": 3000})
        idx = pg_catalog.names().index("shared_buffers")
        gap = abs(
            config_to_vector(big)[idx] - config_to_vector(small)[idx]
        )
        assert gap > 0.5

    def test_wrong_length_rejected(self, pg_catalog):
        with pytest.raises(ValueError):
            vector_to_config(np.zeros(3), pg_catalog)

    def test_vector_memoised_read_only_and_not_pickled(self, pg_catalog):
        config = KnobConfiguration(pg_catalog, {"work_mem": 64})
        unvectorised = pickle.dumps(config)
        vector = config_to_vector(config)
        assert config_to_vector(config) is vector
        with pytest.raises(ValueError):
            vector[0] = 0.5
        assert pickle.dumps(config) == unvectorised
        copy = pickle.loads(unvectorised)
        assert config_to_vector(copy).tobytes() == vector.tobytes()
        # A derived configuration has its own vector.
        other = config.with_values({"work_mem": 128})
        assert config_to_vector(other).tobytes() != vector.tobytes()


class TestBoostThrottledKnobs:
    def _request(self, pg_catalog, knobs, work_mem=4.0):
        return TuningRequest(
            "svc",
            "w",
            KnobConfiguration(pg_catalog, {"work_mem": work_mem}),
            MetricsDelta({}),
            throttle_class="memory",
            throttle_knobs=knobs,
        )

    def test_doubles_implicated_knob(self, pg_catalog):
        request = self._request(pg_catalog, ("work_mem",), work_mem=10.0)
        recommended = KnobConfiguration(pg_catalog, {"work_mem": 5.0})
        boosted = boost_throttled_knobs(recommended, request)
        assert boosted["work_mem"] == 20.0

    def test_keeps_higher_recommendation(self, pg_catalog):
        request = self._request(pg_catalog, ("work_mem",), work_mem=10.0)
        recommended = KnobConfiguration(pg_catalog, {"work_mem": 500.0})
        assert boost_throttled_knobs(recommended, request)["work_mem"] == 500.0

    def test_no_knobs_no_change(self, pg_catalog):
        request = self._request(pg_catalog, ())
        recommended = KnobConfiguration(pg_catalog)
        assert boost_throttled_knobs(recommended, request) is recommended

    def test_restart_required_knobs_untouched(self, pg_catalog):
        request = self._request(pg_catalog, ("shared_buffers",))
        recommended = KnobConfiguration(pg_catalog, {"shared_buffers": 64})
        assert (
            boost_throttled_knobs(recommended, request)["shared_buffers"] == 64
        )

    def test_non_memory_knobs_untouched(self, pg_catalog):
        request = self._request(pg_catalog, ("random_page_cost",))
        recommended = KnobConfiguration(pg_catalog, {"random_page_cost": 1.0})
        assert (
            boost_throttled_knobs(recommended, request)["random_page_cost"] == 1.0
        )

    def test_clamped_at_knob_maximum(self, pg_catalog):
        request = self._request(pg_catalog, ("work_mem",), work_mem=4000.0)
        recommended = KnobConfiguration(pg_catalog, {"work_mem": 4.0})
        boosted = boost_throttled_knobs(recommended, request)
        assert boosted["work_mem"] == pg_catalog.get("work_mem").max_value
