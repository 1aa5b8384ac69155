"""Unit tests for SimulatedDatabase (run, apply, explain, crash model)."""

import pytest

from repro.dbsim import (
    DatabaseCrashed,
    KnobConfiguration,
    SimulatedDatabase,
)
from repro.dbsim.engine import RESTART_DOWNTIME_S
from tests.reference import explain


class TestRun:
    def test_run_produces_metrics(self, pg_db, tpcc):
        result = pg_db.run(tpcc.batch(30.0))
        assert result.throughput > 0
        assert result.metrics["xact_commit"] > 0
        assert result.metrics["throughput_tps"] == result.throughput

    def test_clock_advances(self, pg_db, tpcc):
        pg_db.run(tpcc.batch(30.0))
        assert pg_db.clock_s == 30.0
        pg_db.run(tpcc.batch(45.0))
        assert pg_db.clock_s == 75.0

    def test_series_follow_clock(self, pg_db, tpcc):
        pg_db.run(tpcc.batch(10.0))
        second = pg_db.run(tpcc.batch(10.0))
        # Sample i of the window's disk arrays is second start_time_s + i.
        assert second.start_time_s == 10.0
        assert len(second.data_disk.iops) == 10

    def test_deterministic_given_seeds(self, tpcc):
        from repro.workloads import TPCCWorkload

        a = SimulatedDatabase("postgres", "m4.large", 26.0, seed=9)
        b = SimulatedDatabase("postgres", "m4.large", 26.0, seed=9)
        wa, wb = TPCCWorkload(seed=4), TPCCWorkload(seed=4)
        ra, rb = a.run(wa.batch(20.0)), b.run(wb.batch(20.0))
        assert ra.throughput == rb.throughput
        assert ra.metrics.as_vector().tolist() == rb.metrics.as_vector().tolist()

    def test_bigger_buffer_more_throughput(self, tpcc):
        """The main tuning lever must move the objective."""
        from repro.workloads import TPCCWorkload

        small = SimulatedDatabase("postgres", "m4.large", 26.0, seed=1)
        big = SimulatedDatabase("postgres", "m4.large", 26.0, seed=1)
        big.config = big.config.with_values({"shared_buffers": 4096})
        r_small = small.run(TPCCWorkload(seed=2).batch(30.0))
        r_big = big.run(TPCCWorkload(seed=2).batch(30.0))
        assert r_big.throughput > r_small.throughput * 1.5

    def test_overload_caps_throughput(self):
        from repro.workloads import TPCHWorkload

        db = SimulatedDatabase("postgres", "m4.large", 24.0, seed=1)
        result = db.run(TPCHWorkload(rps=50.0, seed=2).batch(30.0))
        assert result.throughput < result.summary.offered_tps
        assert result.summary.cpu_utilisation == 1.0


class TestApplyConfig:
    def test_reload_applies_tunables(self, pg_db):
        new = pg_db.config.with_values({"work_mem": 64})
        outcome = pg_db.apply_config(new, mode="reload")
        assert outcome.applied["work_mem"] == 64
        assert pg_db.config["work_mem"] == 64

    def test_reload_skips_restart_required(self, pg_db):
        new = pg_db.config.with_values({"shared_buffers": 4096, "work_mem": 64})
        outcome = pg_db.apply_config(new, mode="reload")
        assert "shared_buffers" in outcome.skipped_restart_required
        assert pg_db.config["shared_buffers"] == 128
        assert pg_db.config["work_mem"] == 64

    def test_restart_applies_everything(self, pg_db):
        new = pg_db.config.with_values({"shared_buffers": 2048})
        outcome = pg_db.apply_config(new, mode="restart")
        assert outcome.skipped_restart_required == []
        assert pg_db.config["shared_buffers"] == 2048

    def test_restart_with_bad_config_crashes(self, pg_db):
        bad = pg_db.config.with_values(
            {"shared_buffers": 60_000, "work_mem": 4_000}
        )
        with pytest.raises(DatabaseCrashed):
            pg_db.apply_config(bad, mode="restart")
        assert pg_db.crashed

    def test_crashed_instance_rejects_everything(self, pg_db, tpcc):
        bad = pg_db.config.with_values({"shared_buffers": 60_000, "work_mem": 4000})
        with pytest.raises(DatabaseCrashed):
            pg_db.apply_config(bad, mode="restart")
        with pytest.raises(DatabaseCrashed):
            pg_db.run(tpcc.batch(10.0))
        with pytest.raises(DatabaseCrashed):
            pg_db.apply_config(pg_db.config, mode="reload")

    def test_heal_restores_service(self, pg_db, tpcc):
        bad = pg_db.config.with_values({"shared_buffers": 60_000, "work_mem": 4000})
        with pytest.raises(DatabaseCrashed):
            pg_db.apply_config(bad, mode="restart")
        pg_db.heal()
        result = pg_db.run(tpcc.batch(30.0))
        assert result.throughput > 0

    def test_wrong_flavor_config_rejected(self, pg_db, my_catalog):
        with pytest.raises(ValueError, match="flavor"):
            pg_db.apply_config(KnobConfiguration(my_catalog))

    def test_unknown_mode_rejected(self, pg_db):
        with pytest.raises(ValueError, match="mode"):
            pg_db.apply_config(pg_db.config, mode="magic")


class TestDisruption:
    @staticmethod
    def _underloaded():
        """A DB with headroom so disruption accounting shows cleanly."""
        from repro.workloads import TPCCWorkload

        db = SimulatedDatabase("postgres", "m4.large", 26.0, seed=3)
        return db, TPCCWorkload(rps=400.0, seed=5)

    def test_restart_costs_throughput(self):
        quiet_db, quiet_w = self._underloaded()
        restarted_db, restarted_w = self._underloaded()
        restarted_db.apply_config(restarted_db.config, mode="restart")
        r_quiet = quiet_db.run(quiet_w.batch(60.0))
        r_restart = restarted_db.run(restarted_w.batch(60.0))
        expected = r_quiet.throughput * (1 - RESTART_DOWNTIME_S / 60.0)
        assert r_restart.throughput == pytest.approx(expected, rel=0.08)

    def test_socket_jitter_smaller_than_restart(self):
        socketed_db, socketed_w = self._underloaded()
        restarted_db, restarted_w = self._underloaded()
        socketed_db.apply_config(socketed_db.config, mode="socket")
        restarted_db.apply_config(restarted_db.config, mode="restart")
        r_socket = socketed_db.run(socketed_w.batch(60.0))
        r_restart = restarted_db.run(restarted_w.batch(60.0))
        assert r_socket.throughput > r_restart.throughput

    def test_reload_has_no_stall(self):
        quiet_db, quiet_w = self._underloaded()
        reloaded_db, reloaded_w = self._underloaded()
        reloaded_db.apply_config(reloaded_db.config, mode="reload")
        r_quiet = quiet_db.run(quiet_w.batch(60.0))
        r_reload = reloaded_db.run(reloaded_w.batch(60.0))
        assert r_reload.throughput == pytest.approx(r_quiet.throughput, rel=0.02)


class TestExplain:
    def test_explain_uses_live_config(self, pg_db):
        from repro.workloads.query import Query, QueryFootprint, QueryType

        q = Query(QueryType.AGGREGATE, "SELECT agg", QueryFootprint(sort_mb=100.0))
        assert explain(pg_db, q).uses_disk_sort
        pg_db.config = pg_db.config.with_values({"work_mem": 512})
        assert not explain(pg_db, q).uses_disk_sort

    def test_explain_with_hypothetical_config(self, pg_db):
        from repro.workloads.query import Query, QueryFootprint, QueryType

        q = Query(QueryType.AGGREGATE, "SELECT agg", QueryFootprint(sort_mb=100.0))
        candidate = pg_db.config.with_values({"work_mem": 512})
        assert explain(pg_db, q).uses_disk_sort  # live config unchanged
        assert not explain(pg_db, q, candidate).uses_disk_sort
        assert pg_db.config["work_mem"] == 4  # what-if did not apply
