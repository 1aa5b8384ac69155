"""Unit tests for the planner cost model and latent optima."""

import numpy as np
import pytest

from repro.common.hardware import vm_type
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.planner import PlannerModel, latent_optimum
from repro.workloads.query import Query, QueryFootprint, QueryType
from tests.reference import plan_explain


def _query(sort_mb=0.0, planner_sensitivity=0.5, parallel_fraction=0.0,
           maintenance_mb=0.0, temp_mb=0.0):
    return Query(
        QueryType.SELECT,
        "SELECT 1",
        QueryFootprint(
            rows_examined=1000,
            read_kb=500.0,
            sort_mb=sort_mb,
            maintenance_mb=maintenance_mb,
            temp_mb=temp_mb,
            planner_sensitivity=planner_sensitivity,
            parallel_fraction=parallel_fraction,
        ),
    )


@pytest.fixture
def planner(pg_catalog):
    return PlannerModel("postgres", "tpcc", vm_type("m4.large"))


class TestLatentOptimum:
    def test_deterministic(self, pg_catalog):
        knob = pg_catalog.get("random_page_cost")
        assert latent_optimum("postgres", "tpcc", knob) == latent_optimum(
            "postgres", "tpcc", knob
        )

    def test_workload_dependent(self, pg_catalog):
        knob = pg_catalog.get("random_page_cost")
        assert latent_optimum("postgres", "tpcc", knob) != latent_optimum(
            "postgres", "ycsb", knob
        )

    def test_within_central_range(self, pg_catalog):
        for knob in pg_catalog:
            opt = latent_optimum("postgres", "anything", knob)
            span = knob.max_value - knob.min_value
            assert knob.min_value + 0.1 * span <= opt <= knob.min_value + 0.9 * span


class TestDistanceAndPenalty:
    def test_distance_zero_at_optimum(self, planner, pg_catalog):
        values = {
            k.name: latent_optimum("postgres", "tpcc", k)
            for k in planner.cost_knobs(KnobConfiguration(pg_catalog))
        }
        cfg = KnobConfiguration(pg_catalog, values)
        assert planner.distance(cfg) == pytest.approx(0.0, abs=1e-12)

    def test_distance_bounded(self, planner, pg_catalog):
        cfg = KnobConfiguration(pg_catalog)
        assert 0.0 <= planner.distance(cfg) <= 1.0

    def test_penalty_scales_with_sensitivity(self, planner, pg_catalog):
        cfg = KnobConfiguration(pg_catalog)
        assert planner.penalty(cfg, 0.0) == 1.0
        assert planner.penalty(cfg, 1.0) >= planner.penalty(cfg, 0.5)

    def test_moving_toward_optimum_reduces_cost(self, planner, pg_catalog):
        """The MDP's premise: cost falls as a knob approaches its optimum."""
        knob = pg_catalog.get("random_page_cost")
        optimum = latent_optimum("postgres", "tpcc", knob)
        far_value = knob.min_value if optimum > (knob.min_value + knob.max_value) / 2 else knob.max_value
        far = KnobConfiguration(pg_catalog, {"random_page_cost": far_value})
        near = KnobConfiguration(
            pg_catalog, {"random_page_cost": (far_value + optimum) / 2}
        )
        q = _query(planner_sensitivity=1.0)
        assert (
            plan_explain(planner, q, near).total_cost
            < plan_explain(planner, q, far).total_cost
        )


class TestParallelism:
    def test_no_speedup_for_serial_query(self, planner, pg_catalog):
        cfg = KnobConfiguration(pg_catalog, {"max_parallel_workers_per_gather": 4})
        assert planner.parallel_speedup(cfg, 0.0) == 1.0

    def test_workers_help_parallel_fraction(self, planner, pg_catalog):
        none = KnobConfiguration(pg_catalog, {"max_parallel_workers_per_gather": 0})
        one = KnobConfiguration(pg_catalog, {"max_parallel_workers_per_gather": 1})
        assert planner.parallel_speedup(one, 0.8) > planner.parallel_speedup(none, 0.8)

    def test_oversubscription_penalised(self, planner, pg_catalog):
        """m4.large has 2 vCPUs: requesting 16 workers must not beat 1."""
        one = KnobConfiguration(pg_catalog, {"max_parallel_workers_per_gather": 1})
        many = KnobConfiguration(pg_catalog, {"max_parallel_workers_per_gather": 16})
        assert planner.parallel_speedup(many, 0.8) < planner.parallel_speedup(one, 0.8)

    def test_mysql_zero_concurrency_means_unlimited(self, my_catalog):
        planner = PlannerModel("mysql", "tpcc", vm_type("m4.xlarge"))
        cfg = KnobConfiguration(my_catalog, {"innodb_thread_concurrency": 0})
        assert planner.requested_workers(cfg) == 4


class TestExplain:
    def test_disk_flags_follow_allowances(self, planner, pg_catalog):
        cfg = KnobConfiguration(pg_catalog, {"work_mem": 4})
        plan = plan_explain(planner, _query(sort_mb=100.0), cfg)
        assert plan.uses_disk_sort
        assert plan.uses_disk
        assert plan.spilled_categories() == {"sort"}

    def test_no_disk_when_fits(self, planner, pg_catalog):
        cfg = KnobConfiguration(pg_catalog, {"work_mem": 512})
        plan = plan_explain(planner, _query(sort_mb=100.0), cfg)
        assert not plan.uses_disk

    def test_all_three_flags(self, planner, pg_catalog):
        cfg = KnobConfiguration(pg_catalog)
        plan = plan_explain(
            planner,
            _query(sort_mb=100.0, maintenance_mb=200.0, temp_mb=100.0), cfg
        )
        assert plan.spilled_categories() == {"sort", "maintenance", "temp"}

    def test_cost_noise_reproducible(self, planner, pg_catalog):
        cfg = KnobConfiguration(pg_catalog)
        q = _query()
        a = plan_explain(planner, q, cfg, rng=np.random.default_rng(3))
        b = plan_explain(planner, q, cfg, rng=np.random.default_rng(3))
        assert a.total_cost == b.total_cost

    def test_workers_planned_only_for_parallel(self, planner, pg_catalog):
        cfg = KnobConfiguration(pg_catalog, {"max_parallel_workers_per_gather": 2})
        assert plan_explain(planner, _query(parallel_fraction=0.5), cfg).planned_workers == 2
        assert plan_explain(planner, _query(parallel_fraction=0.0), cfg).planned_workers == 0
