"""Unit tests for the memory model (hit ratio, spills, swap)."""

import pytest

from repro.dbsim.config import KnobConfiguration
from repro.dbsim.memory import (
    buffer_hit_ratio,
    compute_spills,
    swap_factor,
    working_area_knobs,
)
from repro.common.hardware import vm_type
from repro.workloads.generator import WorkloadBatch
from repro.workloads.query import QueryFamily, QueryFootprint, QueryType


def _batch(sort_mb=0.0, maintenance_mb=0.0, temp_mb=0.0, count=10, name="w"):
    fam = QueryFamily(
        "q",
        QueryType.AGGREGATE,
        "SELECT agg",
        1.0,
        QueryFootprint(
            sort_mb=sort_mb, maintenance_mb=maintenance_mb, temp_mb=temp_mb
        ),
    )
    return WorkloadBatch(name, 10.0, count / 10.0, {"q": count}, {"q": fam})


class TestBufferHitRatio:
    def test_zero_buffer_zero_hits(self):
        assert buffer_hit_ratio(0.0, 10.0) == 0.0

    def test_monotone_in_buffer(self):
        ratios = [buffer_hit_ratio(mb, 20.0) for mb in (64, 512, 4096, 16384)]
        assert ratios == sorted(ratios)

    def test_bounded_below_one(self):
        assert buffer_hit_ratio(10**6, 1.0) < 1.0

    def test_working_set_sized_pool_is_good(self):
        # Pool == hot set (35% of data) should give a strong hit ratio.
        assert buffer_hit_ratio(0.35 * 10 * 1024, 10.0) > 0.9


class TestWorkingAreaKnobs:
    def test_postgres_mapping(self):
        knobs = working_area_knobs("postgres")
        assert knobs.sort == ("work_mem",)
        assert knobs.maintenance == ("maintenance_work_mem",)
        assert knobs.temp == ("temp_buffers",)

    def test_mysql_sort_shares_two_buffers(self):
        knobs = working_area_knobs("mysql")
        assert set(knobs.sort) == {"sort_buffer_size", "join_buffer_size"}

    def test_unknown_flavor(self):
        with pytest.raises(ValueError):
            working_area_knobs("oracle")


class TestComputeSpills:
    def test_no_spill_when_fits(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog, {"work_mem": 100})
        report = compute_spills(_batch(sort_mb=50.0), cfg)
        assert not report.spilled_families
        assert report.memory_used_mb == pytest.approx(50.0)
        assert report.disk_used_mb == 0.0

    def test_spill_when_exceeds(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog, {"work_mem": 4})
        report = compute_spills(_batch(sort_mb=350.0, count=2), cfg)
        assert report.spilled_families
        assert report.disk_used_mb == pytest.approx(346.0)
        # write + read-back of the excess, per execution
        assert report.spill_read_write_mb == pytest.approx(2 * 346.0 * 2)
        assert report.temp_files == 2

    def test_maintenance_category(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog, {"maintenance_work_mem": 8})
        batch = _batch(maintenance_mb=100.0)
        assert compute_spills(batch, cfg).disk_used_mb == pytest.approx(92.0)
        # Only the maintenance allowance clears it.
        roomy = cfg.with_values({"maintenance_work_mem": 128})
        assert not compute_spills(batch, roomy).spilled_families

    def test_temp_category(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog, {"temp_buffers": 8})
        batch = _batch(temp_mb=100.0)
        assert compute_spills(batch, cfg).disk_used_mb == pytest.approx(92.0)
        # Only the temp allowance clears it.
        roomy = cfg.with_values({"temp_buffers": 128})
        assert not compute_spills(batch, roomy).spilled_families

    def test_multiple_categories_single_query(self, pg_catalog):
        """§3.1: one query class can throttle several knobs at once."""
        cfg = KnobConfiguration(pg_catalog)
        report = compute_spills(
            _batch(sort_mb=100.0, temp_mb=100.0, maintenance_mb=100.0), cfg
        )
        # Excess over the 4 MB work_mem, 64 MB maintenance_work_mem and
        # 8 MB temp_buffers defaults, all charged to the one family.
        assert report.spilled_families == {"q": pytest.approx(96.0 + 36.0 + 92.0)}
        assert report.temp_files == 3 * 10

    def test_zero_count_families_ignored(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog)
        report = compute_spills(_batch(sort_mb=500.0, count=0), cfg)
        assert not report.spilled_families

    def test_fig2_tpcc_fits_in_default_work_mem(self, pg_catalog, tpcc):
        """Fig. 2: TPC-C's ~0.5 MB sorts never spill at the 4 MB default."""
        cfg = KnobConfiguration(pg_catalog)
        batch = tpcc.batch(10.0)
        report = compute_spills(batch, cfg)
        assert not report.spilled_families
        assert report.disk_used_mb == 0.0


class TestSwapFactor:
    def test_no_swap_when_fitting(self, pg_catalog):
        cfg = KnobConfiguration(pg_catalog)
        assert swap_factor(cfg, vm_type("m4.xlarge"), 20) == 1.0

    def test_swap_grows_with_excess(self, pg_catalog):
        vm = vm_type("t2.small")
        small = KnobConfiguration(pg_catalog, {"shared_buffers": 1024})
        big = KnobConfiguration(
            pg_catalog, {"shared_buffers": 1024, "work_mem": 4000}
        )
        assert swap_factor(big, vm, 20) > swap_factor(small, vm, 20) >= 1.0
