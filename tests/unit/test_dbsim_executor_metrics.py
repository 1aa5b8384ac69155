"""Unit tests for the executor service-time model and metric vectors."""

import pytest

from repro.common.hardware import vm_type
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.executor import family_service_time_ms, run_batch
from repro.dbsim.memory import SpillReport
from repro.dbsim.metrics import METRIC_NAMES, MetricsDelta
from repro.dbsim.planner import PlannerModel
from repro.workloads.generator import WorkloadBatch
from repro.workloads.query import QueryFamily, QueryFootprint, QueryType

from tests.reference import spill_mb_per_exec


@pytest.fixture
def planner():
    return PlannerModel("postgres", "tpcc", vm_type("m4.large"))


def _service(fp, cfg, planner, hit=0.9, wlat=1.0, data_factor=1.0, swap=1.0):
    return family_service_time_ms(
        fp,
        cfg,
        vm_type("m4.large"),
        hit,
        planner,
        spill_mb_per_exec(fp, cfg),
        wlat,
        data_factor,
        swap,
    )


class TestServiceTime:
    def test_more_rows_more_time(self, pg_catalog, planner):
        cfg = KnobConfiguration(pg_catalog)
        small = _service(QueryFootprint(rows_examined=10), cfg, planner)
        big = _service(QueryFootprint(rows_examined=100_000), cfg, planner)
        assert big > small

    def test_buffer_misses_cost_io(self, pg_catalog, planner):
        cfg = KnobConfiguration(pg_catalog)
        fp = QueryFootprint(read_kb=10_000.0)
        hot = _service(fp, cfg, planner, hit=0.99)
        cold = _service(fp, cfg, planner, hit=0.1)
        assert cold > hot

    def test_spill_costs_io(self, pg_catalog, planner):
        cfg_small = KnobConfiguration(pg_catalog, {"work_mem": 4})
        cfg_big = KnobConfiguration(pg_catalog, {"work_mem": 512})
        fp = QueryFootprint(sort_mb=300.0)
        assert _service(fp, cfg_small, planner) > _service(fp, cfg_big, planner)

    def test_write_queries_pay_commit_wait(self, pg_catalog, planner):
        cfg = KnobConfiguration(pg_catalog)
        fp = QueryFootprint(write_kb=8.0)
        calm = _service(fp, cfg, planner, wlat=1.0)
        surging = _service(fp, cfg, planner, wlat=50.0)
        assert surging > calm

    def test_swap_multiplies_everything(self, pg_catalog, planner):
        cfg = KnobConfiguration(pg_catalog)
        fp = QueryFootprint(rows_examined=1000)
        assert _service(fp, cfg, planner, swap=3.0) == pytest.approx(
            3.0 * _service(fp, cfg, planner, swap=1.0)
        )


class TestRunBatch:
    def _batch(self, count, duration=10.0):
        fam = QueryFamily(
            "q", QueryType.SELECT, "SELECT", 1.0, QueryFootprint(rows_examined=100)
        )
        return WorkloadBatch("w", duration, count / duration, {"q": count}, {"q": fam})

    def _run(self, batch, pg_catalog, planner):
        return run_batch(
            batch,
            KnobConfiguration(pg_catalog),
            vm_type("m4.large"),
            0.9,
            planner,
            SpillReport(),
            1.0,
            1.0,
        )

    def test_empty_batch(self, pg_catalog, planner):
        summary = self._run(self._batch(0), pg_catalog, planner)
        assert summary.achieved_tps == 0.0
        assert summary.total_queries == 0

    def test_light_load_meets_offered(self, pg_catalog, planner):
        summary = self._run(self._batch(100), pg_catalog, planner)
        assert summary.achieved_tps == pytest.approx(10.0)
        assert summary.cpu_utilisation < 0.2

    def test_saturation_caps_throughput(self, pg_catalog, planner):
        summary = self._run(self._batch(2_000_000), pg_catalog, planner)
        assert summary.achieved_tps < 200_000
        assert summary.cpu_utilisation == 1.0

    def test_latency_inflates_near_saturation(self, pg_catalog, planner):
        light = self._run(self._batch(100), pg_catalog, planner)
        heavy = self._run(self._batch(2_000_000), pg_catalog, planner)
        assert heavy.avg_latency_ms > light.avg_latency_ms


class TestMetricsDelta:
    def test_defaults_zero_filled(self):
        m = MetricsDelta({"throughput_tps": 5.0})
        assert m["throughput_tps"] == 5.0
        assert m["wal_mb"] == 0.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            MetricsDelta({"made_up": 1.0})

    def test_unknown_lookup_rejected(self):
        with pytest.raises(KeyError):
            MetricsDelta({})["nope"]

    def test_vector_ordering(self):
        m = MetricsDelta({"xact_commit": 7.0})
        vec = m.as_vector()
        assert vec[METRIC_NAMES.index("xact_commit")] == 7.0
        assert len(vec) == len(METRIC_NAMES)

    def test_subset_vector(self):
        m = MetricsDelta({"wal_mb": 3.0})
        vec = m.as_vector(("wal_mb",))
        assert vec.tolist() == [3.0]

    def test_unknown_vector_name_rejected(self):
        with pytest.raises(KeyError, match="'nope'"):
            MetricsDelta({}).as_vector(("wal_mb", "nope"))

    def test_ottertune_set_lacks_planner_metrics(self):
        """§5/Fig. 15: the metric set misses planner estimates, which only
        EXPLAIN shows."""
        assert not [name for name in METRIC_NAMES if name.startswith("planner")]
        assert "throughput_tps" in METRIC_NAMES
