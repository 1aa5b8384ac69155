"""Unit tests for the config director layer."""

import pytest

from repro.core.director import (
    ConfigDirector,
    ConfigRepository,
    LeastLoadedBalancer,
    TunerInstance,
)
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.metrics import MetricsDelta
from repro.tuners import Recommendation, TuningRequest
from repro.tuners.base import Tuner


class _StubTuner(Tuner):
    """Deterministic tuner with configurable cost for balancer tests."""

    def __init__(self, catalog, cost_s=10.0, name="stub"):
        self.catalog = catalog
        self.cost_s = cost_s
        self.name = name
        self.observed = []
        self.recommend_calls = 0

    def observe(self, sample):
        self.observed.append(sample)

    def recommend(self, request):
        self.recommend_calls += 1
        config = request.config.with_values({"work_mem": 64})
        return Recommendation(request.instance_id, config, self.name)

    def recommendation_cost_s(self):
        return self.cost_s


def _request(pg_catalog, t=0.0, config=None):
    return TuningRequest(
        "svc-1",
        "w",
        config if config is not None else KnobConfiguration(pg_catalog),
        MetricsDelta({}),
        timestamp_s=t,
    )


class TestBalancer:
    def test_requires_instances(self):
        with pytest.raises(ValueError):
            LeastLoadedBalancer([])

    def test_duplicate_ids_rejected(self, pg_catalog):
        t = _StubTuner(pg_catalog)
        with pytest.raises(ValueError):
            LeastLoadedBalancer(
                [TunerInstance("a", t), TunerInstance("a", t)]
            )

    def test_assign_picks_least_loaded(self, pg_catalog):
        cheap = TunerInstance("cheap", _StubTuner(pg_catalog, cost_s=1.0))
        pricey = TunerInstance("pricey", _StubTuner(pg_catalog, cost_s=100.0))
        balancer = LeastLoadedBalancer([cheap, pricey])
        director = ConfigDirector(balancer)
        picks = []
        for _ in range(5):
            picks.append(balancer.pick().instance_id)
            director.handle_tuning_request(_request(pg_catalog))
        # After pricey serves once (100 s queued) everything goes to cheap.
        assert picks.count("cheap") >= 4
        assert (cheap.tuner.recommend_calls, pricey.tuner.recommend_calls) == (4, 1)
        assert pricey.outstanding_s == 100.0

    def test_drain_releases_work(self, pg_catalog):
        inst = TunerInstance("a", _StubTuner(pg_catalog, cost_s=30.0))
        balancer = LeastLoadedBalancer([inst])
        ConfigDirector(balancer).handle_tuning_request(_request(pg_catalog))
        assert inst.outstanding_s == 30.0
        balancer.drain(10.0)
        assert inst.outstanding_s == 20.0
        balancer.drain(100.0)
        assert inst.outstanding_s == 0.0

    def test_drain_negative_rejected(self, pg_catalog):
        balancer = LeastLoadedBalancer([TunerInstance("a", _StubTuner(pg_catalog))])
        with pytest.raises(ValueError):
            balancer.drain(-1.0)


class TestConfigRepository:
    def test_versions_increment(self, pg_catalog):
        repo = ConfigRepository()
        cfg = KnobConfiguration(pg_catalog)
        v1 = repo.store("svc", cfg, "t", 0.0)
        v2 = repo.store("svc", cfg.with_values({"work_mem": 9}), "t", 1.0)
        assert (v1.version, v2.version) == (1, 2)
        assert [v.version for v in repo.history("svc")] == [1, 2]

    def test_knob_percentile(self, pg_catalog):
        repo = ConfigRepository()
        for i, value in enumerate([100, 200, 300, 400]):
            repo.store(
                "svc",
                KnobConfiguration(pg_catalog, {"shared_buffers": value}),
                "t",
                float(i),
            )
        assert repo.knob_percentile("svc", "shared_buffers", 50) == 250.0

    def test_knob_percentile_since_filter(self, pg_catalog):
        repo = ConfigRepository()
        repo.store("svc", KnobConfiguration(pg_catalog, {"shared_buffers": 100}), "t", 0.0)
        repo.store("svc", KnobConfiguration(pg_catalog, {"shared_buffers": 900}), "t", 10.0)
        assert repo.knob_percentile("svc", "shared_buffers", 99, since_s=5.0) == 900.0

    def test_knob_percentile_none_without_history(self, pg_catalog):
        assert ConfigRepository().knob_percentile("svc", "work_mem", 99) is None


class TestConfigDirector:
    def _director(self, pg_catalog, cost_s=10.0):
        balancer = LeastLoadedBalancer(
            [TunerInstance("t0", _StubTuner(pg_catalog, cost_s))]
        )
        return ConfigDirector(balancer)

    def test_handle_stores_and_splits(self, pg_catalog):
        director = self._director(pg_catalog)
        split = director.handle_tuning_request(_request(pg_catalog, t=5.0))
        assert split.reloadable["work_mem"] == 64
        assert not split.deferred_knobs
        assert director.configs.history("svc-1")
        assert director.total_requests == 1

    def test_restart_knobs_deferred(self, pg_catalog):
        class RestartTuner(_StubTuner):
            def recommend(self, request):
                config = request.config.with_values(
                    {"shared_buffers": 4096, "work_mem": 64}
                )
                return Recommendation(request.instance_id, config, self.name)

        balancer = LeastLoadedBalancer(
            [TunerInstance("t0", RestartTuner(pg_catalog))]
        )
        director = ConfigDirector(balancer)
        split = director.handle_tuning_request(_request(pg_catalog))
        assert split.deferred_knobs == {"shared_buffers": 4096.0}
        assert split.reloadable["shared_buffers"] == 128  # unchanged now
        assert split.reloadable["work_mem"] == 64  # applied now
        assert director.consume_downtime_changes("svc-1") == {
            "shared_buffers": 4096.0
        }

    def test_consume_downtime_changes_pops(self, pg_catalog):
        class RestartTuner(_StubTuner):
            def recommend(self, request):
                config = request.config.with_values({"shared_buffers": 4096})
                return Recommendation(request.instance_id, config, self.name)

        director = ConfigDirector(
            LeastLoadedBalancer([TunerInstance("t0", RestartTuner(pg_catalog))])
        )
        director.handle_tuning_request(_request(pg_catalog))
        assert director.consume_downtime_changes("svc-1")
        assert director.consume_downtime_changes("svc-1") == {}
