"""Substrate validation: each knob moves the engine the right way.

These tests pin the *directionality* of every knob family the paper's
detectors reason about — if a knob stops having its physical effect, the
throttle detectors and tuners above it are silently meaningless.
"""

from repro.dbsim import SimulatedDatabase
from repro.workloads import (
    AdulteratedTPCCWorkload,
    TPCCWorkload,
    TPCHWorkload,
    YCSBWorkload,
)


def _execute(flavor, overrides, workload_factory, vm="m4.large", data_gb=26.0,
             windows=2, window_s=60.0, seed=7):
    db = SimulatedDatabase(flavor, vm, data_gb, seed=seed)
    if overrides:
        db.apply_config(db.config.with_values(overrides), mode="restart")
        db._pending_stall_s = 0.0
        db._cold_windows = 0
    workload = workload_factory(seed + 1)
    results = [
        db.run(workload.batch(window_s, start_time_s=db.clock_s))
        for _ in range(windows)
    ]
    return db, results[-1]


def _run(*args, **kwargs):
    return _execute(*args, **kwargs)[1]


def _spilled(*args, **kwargs):
    """Working areas the last window spilled in, read from EXPLAIN of each
    executed family's example statement."""
    db, result = _execute(*args, **kwargs)
    return set().union(
        *(db.explain(q).spilled_categories() for q in result.batch.family_examples)
    )


def _checkpoint_sums(flavor, overrides, workload_factory, windows=4, seed=7,
                     vm="m4.large", data_gb=26.0, window_s=60.0):
    """(timed, requested) checkpoint totals across all windows."""
    db = SimulatedDatabase(flavor, vm, data_gb, seed=seed)
    if overrides:
        db.apply_config(db.config.with_values(overrides), mode="restart")
        db._pending_stall_s = 0.0
        db._cold_windows = 0
    workload = workload_factory(seed + 1)
    timed = requested = 0
    for _ in range(windows):
        result = db.run(workload.batch(window_s, start_time_s=db.clock_s))
        timed += result.writeback.checkpoints_timed
        requested += result.writeback.checkpoints_requested
    return timed, requested


class TestPostgresMemoryKnobs:
    def test_shared_buffers_raises_hit_ratio(self):
        factory = lambda s: YCSBWorkload(rps=2000.0, data_size_gb=26.0, seed=s)
        small = _run("postgres", {}, factory)
        big = _run("postgres", {"shared_buffers": 4096}, factory)
        assert big.hit_ratio > small.hit_ratio * 3

    def test_work_mem_stops_sort_spills(self):
        factory = lambda s: TPCHWorkload(rps=2.0, data_size_gb=24.0, seed=s)
        small = _spilled("postgres", {}, factory, data_gb=24.0)
        big = _spilled("postgres", {"work_mem": 512}, factory, data_gb=24.0)
        assert "sort" in small
        assert "sort" not in big

    def test_maintenance_work_mem_stops_maintenance_spills(self):
        factory = lambda s: AdulteratedTPCCWorkload(0.5, data_size_gb=21.0, seed=s)
        small = _spilled("postgres", {}, factory, data_gb=21.0)
        big = _spilled("postgres", {"maintenance_work_mem": 512}, factory, data_gb=21.0)
        assert "maintenance" in small
        assert "maintenance" not in big

    def test_temp_buffers_stop_temp_spills(self):
        factory = lambda s: AdulteratedTPCCWorkload(0.5, data_size_gb=21.0, seed=s)
        small = _spilled("postgres", {}, factory, data_gb=21.0)
        big = _spilled("postgres", {"temp_buffers": 1024}, factory, data_gb=21.0)
        assert "temp" in small
        assert "temp" not in big


class TestPostgresBgwriterKnobs:
    def test_longer_checkpoint_timeout_fewer_timed_checkpoints(self):
        factory = lambda s: TPCCWorkload(rps=800.0, seed=s)
        frequent = _run(
            "postgres",
            {"checkpoint_timeout": 60, "max_wal_size": 16_384},
            factory, windows=5,
        )
        rare = _run(
            "postgres",
            {"checkpoint_timeout": 3600, "max_wal_size": 16_384},
            factory, windows=5,
        )
        assert frequent.writeback.checkpoints_timed > 0
        assert rare.writeback.checkpoints_timed == 0

    def test_bigger_max_wal_size_fewer_requested_checkpoints(self):
        factory = lambda s: TPCCWorkload(rps=3300.0, seed=s)
        _, small_requested = _checkpoint_sums(
            "postgres",
            {"max_wal_size": 64, "checkpoint_timeout": 300},
            factory,
        )
        _, big_requested = _checkpoint_sums(
            "postgres",
            {"max_wal_size": 16_384, "checkpoint_timeout": 300},
            factory,
        )
        assert small_requested > big_requested

    def test_aggressive_bgwriter_shrinks_checkpoint_bursts(self):
        factory = lambda s: TPCCWorkload(rps=1500.0, seed=s)
        lazy = _run(
            "postgres",
            {"bgwriter_lru_maxpages": 10, "bgwriter_delay": 5000,
             "shared_buffers": 4096, "checkpoint_timeout": 120},
            factory, windows=4,
        )
        eager = _run(
            "postgres",
            {"bgwriter_lru_maxpages": 1000, "bgwriter_delay": 20,
             "shared_buffers": 4096, "checkpoint_timeout": 120},
            factory, windows=4,
        )
        assert eager.writeback.bgwriter_write_mb > lazy.writeback.bgwriter_write_mb
        assert eager.writeback.checkpoint_write_mb < lazy.writeback.checkpoint_write_mb


class TestPostgresPlannerKnobs:
    def test_planner_knobs_move_throughput(self):
        """Moving the planner knobs toward the latent optimum speeds up."""
        from repro.dbsim.knobs import KnobClass, postgres_catalog
        from repro.dbsim.planner import latent_optimum

        catalog = postgres_catalog()
        optimum = {
            k.name: latent_optimum("postgres", "tpch", k)
            for k in catalog.by_class(KnobClass.ASYNC_PLANNER)
        }
        factory = lambda s: TPCHWorkload(rps=4.0, data_size_gb=24.0, seed=s)
        default = _run("postgres", {"work_mem": 1024}, factory, data_gb=24.0,
                       vm="m4.xlarge")
        tuned = _run("postgres", {"work_mem": 1024, **optimum}, factory,
                     data_gb=24.0, vm="m4.xlarge")
        assert tuned.summary.avg_latency_ms < default.summary.avg_latency_ms

    def test_parallel_workers_help_analytics(self):
        factory = lambda s: TPCHWorkload(rps=4.0, data_size_gb=24.0, seed=s)
        serial = _run(
            "postgres",
            {"work_mem": 1024, "max_parallel_workers_per_gather": 0},
            factory, data_gb=24.0, vm="m4.xlarge",
        )
        parallel = _run(
            "postgres",
            {"work_mem": 1024, "max_parallel_workers_per_gather": 3},
            factory, data_gb=24.0, vm="m4.xlarge",
        )
        assert parallel.summary.avg_latency_ms < serial.summary.avg_latency_ms


class TestMySQLKnobs:
    def test_buffer_pool_raises_hit_ratio(self):
        factory = lambda s: YCSBWorkload(rps=2000.0, data_size_gb=26.0, seed=s)
        small = _run("mysql", {}, factory)
        big = _run("mysql", {"innodb_buffer_pool_size": 4096}, factory)
        assert big.hit_ratio > small.hit_ratio * 3

    def test_sort_and_join_buffers_stop_spills(self):
        factory = lambda s: AdulteratedTPCCWorkload(0.5, data_size_gb=21.0, seed=s)
        small = _spilled("mysql", {}, factory, data_gb=21.0)
        big = _spilled(
            "mysql", {"sort_buffer_size": 400, "join_buffer_size": 64},
            factory, data_gb=21.0,
        )
        assert "sort" in small
        assert "sort" not in big

    def test_log_file_size_bounds_requested_checkpoints(self):
        factory = lambda s: TPCCWorkload(rps=3300.0, seed=s)
        # Big buffer pool keeps the dirty-fraction trigger out of the way
        # so only the redo-log-size trigger differs.
        _, small_requested = _checkpoint_sums(
            "mysql",
            {"innodb_log_file_size": 16, "innodb_buffer_pool_size": 4096},
            factory,
        )
        _, big_requested = _checkpoint_sums(
            "mysql",
            {"innodb_log_file_size": 4096, "innodb_buffer_pool_size": 4096},
            factory,
        )
        assert small_requested > big_requested


class TestBudgetInteractions:
    def test_overallocated_memory_swaps(self):
        factory = lambda s: TPCCWorkload(rps=800.0, seed=s)
        sane = _run("postgres", {}, factory, vm="t2.small", data_gb=8.0)
        # Over-budget via reload (reload does not validate, like real PG).
        db = SimulatedDatabase("postgres", "t2.small", 8.0, seed=7)
        db.apply_config(
            db.config.with_values({"work_mem": 2048, "temp_buffers": 1024}),
            mode="reload",
        )
        result = db.run(TPCCWorkload(rps=800.0, seed=8).batch(60.0))
        assert result.metrics["swap_factor"] > 1.0
        assert sane.metrics["swap_factor"] == 1.0
        assert result.throughput < sane.throughput