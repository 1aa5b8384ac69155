"""Delta-only wire discipline of the sharded fig09 protocol.

The repository snapshot crosses to each shard exactly once, at session
setup. These tests pin the steady-state invariant at the payload level:
pickle whatever actually crosses the pipe after window 0 and prove it
contains no repository snapshot (nor any heavyweight object at all), is
an order of magnitude smaller than re-broadcasting the snapshot, and
decodes back to value-identical objects. Traced shards step the same
path and add only a trace fragment per member.
"""

import pickle

from repro.cloud.fleet import FleetSpec
from repro.common.rng import stream_root
from repro.dbsim.knobs import postgres_catalog
from repro.dbsim.metrics import METRIC_NAMES
from repro.experiments.common import offline_train
from repro.experiments.fig09_requests_per_minute import (
    Fig09ShardWorker,
    MemberOut,
    WindowCommand,
    _config_values,
    _decode_config,
    _decode_metrics,
    _decode_sample,
    _encode_sample,
    _ShardSpec,
)
from repro.parallel.shm import MemberBank
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
    b"TimeSeries",
)


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
    bank = MemberBank.create(size, len(catalog), len(METRIC_NAMES), shared=False)
    spec = _ShardSpec(
        fleet=FleetSpec(size=size, root=stream_root(0), sample_size=64),
        repository=repository,
        tde_seed=0,
        bank=bank.handle(),
        traced=traced,
    )
    return Fig09ShardWorker(spec, tuple(range(size))), bank, catalog, repository


def _bank_sample(bank, catalog, out: MemberOut, timestamp_s: float):
    """The training sample the coordinator builds for *out*'s member."""
    _, workload_name, _, _ = out.facts
    return TrainingSample(
        workload_name,
        _decode_config(catalog, bank.config_row(out.index)),
        _decode_metrics(bank.metrics_row(out.index)),
        timestamp_s,
    )


class TestDeltaOnlyBroadcast:
    def test_steady_state_payload_has_no_repository_snapshot(self):
        worker, bank, catalog, repository = _make_worker()
        outs0 = worker.step(WindowCommand(window_s=300.0))
        # Window 0: every member reports its static facts.
        assert [i for i, _ in outs0] == [0, 1]
        assert all(out.facts is not None for _, out in outs0)

        # The coordinator's steady-state broadcast: one fitted config and
        # one fresh sample, both wire-encoded.
        sample = _bank_sample(bank, catalog, outs0[0][1], 0.0)
        command = WindowCommand(
            window_s=300.0,
            apply={0: _config_values(sample.config)},
            new_samples=(_encode_sample(sample),),
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
            assert out.focus is not None
            assert out.facts is None and out.fragment is None

    def test_traced_steady_state_reply_adds_only_fragments(self):
        worker, _, _, _ = _make_worker(traced=True)
        worker.step(WindowCommand(window_s=300.0))
        outs1 = worker.step(WindowCommand(window_s=300.0))
        assert [i for i, _ in outs1] == [0, 1]
        assert all(
            out.fragment is not None and out.facts is None for _, out in outs1
        )
        reply = pickle.dumps(outs1)
        for marker in _HEAVY_MARKERS:
            assert marker not in reply, marker

    def test_bank_rows_decode_to_live_member_state(self):
        worker, bank, catalog, _ = _make_worker()
        worker.step(WindowCommand(window_s=300.0))
        worker.step(WindowCommand(window_s=300.0))
        for i in (0, 1):
            master = worker.members[i].deployment.service.master
            decoded = _decode_config(catalog, bank.config_row(i))
            assert decoded == master.config
            metrics = _decode_metrics(bank.metrics_row(i))
            assert set(metrics.values) == set(METRIC_NAMES)

    def test_sample_codec_round_trips_exactly(self):
        worker, _, catalog, _ = _make_worker()
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
        worker, _, _, _ = _make_worker(size=4)
        outs = worker.step(WindowCommand(window_s=30.0))
        assert [i for i, _ in outs] == [0, 1, 2, 3]
        assert worker.clock_s == 30.0
        for member in worker.members.values():
            assert len(member.monitoring.throughput) == 1
            assert member.monitoring.throughput.values[0] >= 0

    def test_monitoring_filled_by_step(self):
        worker, _, _, _ = _make_worker(size=2)
        worker.step(WindowCommand(window_s=20.0))
        assert all(len(m.monitoring.iops) == 20 for m in worker.members.values())


class TestMemberBank:
    def test_shared_block_round_trips_through_handle(self):
        bank = MemberBank.create(3, 4, 5, shared=True)
        try:
            handle = pickle.loads(pickle.dumps(bank.handle()))
            attached = handle.attach()
            try:
                attached.write(1, [1.0, 2.0, 3.0, 4.0], [0.5] * 5)
                assert bank.config_row(1) == [1.0, 2.0, 3.0, 4.0]
                assert bank.metrics_row(1) == [0.5] * 5
                assert bank.config_row(0) == [0.0] * 4
            finally:
                attached.close()
        finally:
            bank.close()

    def test_plain_bank_handle_is_direct(self):
        bank = MemberBank.create(2, 3, 3, shared=False)
        assert bank.handle().attach() is bank
        bank.close()  # no-op for plain arrays

    def test_dimensions_validated(self):
        try:
            MemberBank(0, 1, 1)
        except ValueError as exc:
            assert "positive" in str(exc)
        else:  # pragma: no cover - failure branch
            raise AssertionError("zero-member bank accepted")


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
                command_bytes=40_000, bytes_sent=160_000, bytes_received=9_000,
                serialize_s=0.01, send_s=0.002, step_s=0.5, recv_s=0.51,
                merge_s=0.001,
            )
        )
        stats.record(
            StepStats(
                command_bytes=1_000, bytes_sent=4_000, bytes_received=2_000,
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
        assert stats.total("bytes_sent") == 164_000
