"""Delta-only wire discipline of the sharded fig09 protocol.

The repository snapshot crosses to each shard exactly once, at session
setup. These tests pin the steady-state invariant at the payload level:
pickle whatever actually crosses the pipe after window 0 and prove it
contains no repository snapshot (nor any heavyweight object at all), is
an order of magnitude smaller than re-broadcasting the snapshot, and
decodes back to value-identical objects. A member that needs tuning
sends its request upstream with its knob and metric values; traced
shards step the same path and add only a trace fragment per member.
"""

import pickle

from repro.cloud.fleet import FleetSpec
from repro.common.rng import stream_root
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import offline_train
from repro.experiments.fig09_requests_per_minute import (
    Fig09ShardWorker,
    WindowCommand,
    _config_values,
    _decode_config,
    _decode_metrics,
    _decode_sample,
    _metric_values,
    _ShardSpec,
)
from repro.parallel.stats import SessionStats, StepStats, render_session_stats
from repro.tuners.base import TrainingSample
from repro.workloads.production import ProductionWorkload

#: Class names that must never appear in a steady-state pipe payload.
_HEAVY_MARKERS = (
    b"WorkloadRepository",
    b"TrainingSample",
    b"KnobConfiguration",
    b"KnobCatalog",
    b"MetricsDelta",
    b"DiskWindowResult",
)


def _encode_sample(sample: TrainingSample):
    """Wire form of a decoded sample, encoded from the objects themselves.

    The coordinator appends ``request.wire_sample(now)`` instead; the two
    must agree element for element, types included, or command bytes
    move.
    """
    return (
        sample.workload_id,
        _config_values(sample.config),
        _metric_values(sample.metrics),
        sample.timestamp_s,
    )


def _typed(value):
    """*value* with every leaf paired with its exact type."""
    if isinstance(value, tuple):
        return tuple(_typed(v) for v in value)
    return (type(value), value)


def _make_worker(size: int = 2, traced: bool = False):
    catalog = postgres_catalog()
    repository = offline_train(
        catalog,
        [
            ProductionWorkload(
                mean_rps=10_000.0, data_size_gb=30.0, seed=90,
                name="production-offline",
            )
        ],
        n_configs=14,
        seed=91,
    )
    spec = _ShardSpec(
        fleet=FleetSpec(size=size, root=stream_root(0), sample_size=64),
        repository=repository,
        tde_seed=0,
        traced=traced,
    )
    return Fig09ShardWorker(spec, tuple(range(size))), catalog, repository


def _capture_results(worker) -> list:
    """Record every window's live execution results, per shard member."""
    windows: list = []
    step_window = worker._engine.step_window

    def recording(batches):
        results = step_window(batches)
        windows.append(dict(zip(worker.indices, results)))
        return results

    worker._engine.step_window = recording
    return windows


def _reload_work_mem(catalog, value: float) -> tuple[float, ...]:
    """A fitted-config wire tuple that changes one reloadable knob."""
    return _config_values(KnobConfiguration(catalog).with_values({"work_mem": value}))


class TestDeltaOnlyBroadcast:
    def test_markers_catch_pickled_disk_telemetry(self):
        # A window's per-second disk arrays stay in the worker; were they
        # to reach the pipe, even without their ExecutionResult, a
        # marker would show it.
        worker, _, _ = _make_worker(size=2)
        windows = _capture_results(worker)
        worker.step(WindowCommand(window_s=20.0))
        payload = pickle.dumps([r.data_disk for r in windows[0].values()])
        assert any(marker in payload for marker in _HEAVY_MARKERS)

    def test_steady_state_payload_has_no_repository_snapshot(self):
        worker, catalog, repository = _make_worker()
        outs0 = worker.step(WindowCommand(window_s=300.0))
        # Window 0 steps every member through the clock.
        assert worker.clock_s == 300.0
        assert sorted(i for i, _ in outs0) == sorted(worker.members)

        # The coordinator's steady-state broadcast: one fitted config and
        # one fresh sample, both wire-encoded.
        request = outs0[0][1].request
        command = WindowCommand(
            window_s=300.0,
            apply={0: request.config_values},
            new_samples=(request.wire_sample(0.0),),
        )
        payload = pickle.dumps(("step", command))
        for marker in _HEAVY_MARKERS:
            assert marker not in payload, marker

        snapshot = pickle.dumps(repository)
        assert len(payload) * 10 <= len(snapshot), (
            f"steady-state payload {len(payload)}B is not >=10x smaller "
            f"than the {len(snapshot)}B snapshot broadcast it replaced"
        )

        outs1 = worker.step(command)
        reply = pickle.dumps(outs1)
        for marker in _HEAVY_MARKERS:
            assert marker not in reply, marker
        # Untraced steady state: only members that need tuning reply.
        assert outs1
        for _, out in outs1:
            assert out.request is not None
            assert out.fragment is None

    def test_traced_steady_state_reply_adds_only_fragments(self):
        worker, _, _ = _make_worker(traced=True)
        worker.step(WindowCommand(window_s=300.0))
        outs1 = worker.step(WindowCommand(window_s=300.0))
        assert [i for i, _ in outs1] == [0, 1]
        assert all(out.fragment is not None for _, out in outs1)
        reply = pickle.dumps(outs1)
        for marker in _HEAVY_MARKERS:
            assert marker not in reply, marker

    def test_request_decodes_to_live_member_state(self):
        worker, catalog, _ = _make_worker()
        live = _capture_results(worker)
        worker.step(WindowCommand(window_s=300.0))
        outs = worker.step(
            WindowCommand(window_s=300.0, apply={0: _reload_work_mem(catalog, 16.0)})
        )
        assert [i for i, _ in outs] == [0, 1]
        for i, out in outs:
            request = out.request
            result = live[-1][i]
            config = _decode_config(catalog, request.config_values)
            metrics = _decode_metrics(request.metric_values)
            assert config == result.config
            assert repr(config) == repr(result.config)
            assert metrics == result.metrics
            assert repr(metrics) == repr(result.metrics)
            member = worker.members[i]
            master = member.deployment.service.master
            assert request.instance_id == member.instance_id
            assert request.workload_name == result.batch.workload_name
            assert request.memory_limit_mb == master.vm.db_memory_limit_mb
            assert request.active_connections == master.active_connections
            values = request.config_values + request.metric_values
            assert all(type(v) is float for v in values)
        assert repr(live[-1][0].config) != repr(live[-1][1].config)

    def test_wire_sample_equals_encoded_training_sample(self):
        worker, catalog, _ = _make_worker()
        windows = (
            WindowCommand(window_s=300.0),
            WindowCommand(window_s=300.0, apply={1: _reload_work_mem(catalog, 32.0)}),
        )
        for now, command in zip((-300.0, 0.0), windows):
            outs = worker.step(command)
            assert outs
            for _, out in outs:
                request = out.request
                sample = TrainingSample(
                    request.workload_name,
                    _decode_config(catalog, request.config_values),
                    _decode_metrics(request.metric_values),
                    now,
                )
                wire = request.wire_sample(now)
                expected = _encode_sample(sample)
                assert _typed(wire) == _typed(expected)
                assert pickle.dumps(wire) == pickle.dumps(expected)

    def test_sample_codec_round_trips_exactly(self):
        worker, catalog, _ = _make_worker()
        member = worker.members[0]
        result = member.deployment.service.run(member.workload.batch(300.0))
        sample = TrainingSample(
            result.batch.workload_name, result.config, result.metrics, 42.0
        )
        decoded = _decode_sample(catalog, _encode_sample(sample))
        assert decoded.workload_id == sample.workload_id
        assert decoded.config == sample.config
        assert decoded.metrics.values == sample.metrics.values
        assert decoded.timestamp_s == sample.timestamp_s
        # Value-exact means repr-exact: downstream maths sees the same bits.
        assert repr(decoded.metrics) == repr(sample.metrics)


class TestFig09ShardWorker:
    def test_step_runs_every_member(self):
        worker, _, _ = _make_worker(size=4)
        windows = _capture_results(worker)
        worker.step(WindowCommand(window_s=30.0))
        assert worker.clock_s == 30.0
        worker.step(WindowCommand(window_s=30.0))
        assert worker.clock_s == 60.0
        assert len(windows) == 2
        for window in windows:
            assert sorted(window) == sorted(worker.members)
            for result in window.values():
                assert len(result.data_disk.iops) == 30
                assert result.throughput >= 0

    def test_monitoring_filled_by_step(self):
        worker, _, _ = _make_worker(size=2)
        windows = _capture_results(worker)
        worker.step(WindowCommand(window_s=20.0))
        (window,) = windows
        assert all(len(r.data_disk.iops) == 20 for r in window.values())


class TestSessionStatsRendering:
    def test_render_reports_bytes_and_phases(self):
        stats = SessionStats(
            backend="process",
            shards=4,
            snapshot_bytes=50_000,
            final_snapshot_bytes=80_000,
        )
        stats.record(
            StepStats(
                command_bytes=40_000,
                serialize_s=0.01, send_s=0.002, step_s=0.5, recv_s=0.51,
                merge_s=0.001,
            )
        )
        stats.record(
            StepStats(
                command_bytes=1_000,
                serialize_s=0.001, send_s=0.001, step_s=0.4, recv_s=0.41,
                merge_s=0.001,
            )
        )
        text = render_session_stats(stats)
        assert "backend=process shards=4 windows=2" in text
        assert "setup snapshot: 50000 bytes/worker" in text
        assert "steady-state command: mean 1000 bytes/window" in text
        assert "80.0x smaller" in text
        assert "member step" in text and "reduce" in text
        assert stats.mean_command_bytes() == 1000.0
        assert stats.total("command_bytes") == 41_000
