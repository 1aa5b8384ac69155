"""Unit tests for the deterministic parallel executor layer."""

import os
import pickle

import numpy as np
import pytest

from repro.common.rng import make_rng, stream_root, substream
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.parallel import (
    FleetExecutor,
    WorkerCrashed,
    merge_member_outputs,
    partition_members,
)


def _fold(registries):
    """Fold *registries* left to right into a fresh one, in order."""
    out = MetricsRegistry()
    for registry in registries:
        out.merge(registry)
    return out


class TestSubstream:
    def test_member_streams_disjoint(self):
        # Different keys must give statistically independent streams; at
        # minimum the first draws of sibling members never collide.
        draws = [
            substream(0, "member", i).integers(0, 2**63) for i in range(64)
        ]
        assert len(set(draws)) == len(draws)

    def test_keyed_stream_stable(self):
        a = substream(42, "member", 7).random(5)
        b = substream(42, "member", 7).random(5)
        assert np.array_equal(a, b)

    def test_independent_of_sibling_construction_order(self):
        forward = [substream(1, "member", i).random() for i in range(8)]
        backward = [
            substream(1, "member", i).random() for i in reversed(range(8))
        ]
        assert forward == list(reversed(backward))

    def test_string_and_int_keys_differ(self):
        assert substream(0, "member", 1).random() != substream(0, 1, 1).random()

    def test_stream_root_passthrough_and_derivation(self):
        assert stream_root(123) == 123
        root = stream_root(make_rng(9))
        assert root == stream_root(make_rng(9))
        assert root != stream_root(make_rng(10))


class TestPartitionMembers:
    def test_balanced_contiguous_cover(self):
        shards = partition_members(10, 3)
        assert shards == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_more_shards_than_members(self):
        assert partition_members(2, 8) == [[0], [1]]

    def test_empty_fleet(self):
        assert partition_members(0, 4) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_members(-1, 2)
        with pytest.raises(ValueError):
            partition_members(4, 0)

    @pytest.mark.parametrize("n,k", [(1, 1), (7, 2), (80, 4), (13, 13)])
    def test_cover_is_exact(self, n, k):
        shards = partition_members(n, k)
        flat = [i for shard in shards for i in shard]
        assert flat == list(range(n))
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1


class TestMergeMemberOutputs:
    def test_sorts_by_member_index(self):
        merged = merge_member_outputs([[(3, "d"), (1, "b")], [(0, "a"), (2, "c")]])
        assert merged == [(0, "a"), (1, "b"), (2, "c"), (3, "d")]

    def test_associative_over_shard_grouping(self):
        outs = [[(i, i * 10)] for i in range(6)]
        grouped_a = [outs[0] + outs[1], outs[2] + outs[3] + outs[4], outs[5]]
        grouped_b = [outs[5] + outs[0], outs[3], outs[1] + outs[4] + outs[2]]
        assert merge_member_outputs(grouped_a) == merge_member_outputs(grouped_b)

    def test_duplicate_member_rejected(self):
        with pytest.raises(ValueError, match="more than one shard"):
            merge_member_outputs([[(0, "a")], [(0, "b")]])


def _dump_registry(reg):
    return sorted((s.name, s.labels, s.value) for s in reg.samples())


class TestMergeRegistries:
    def _registry(self, count, histogram_value):
        reg = MetricsRegistry()
        reg.inc("requests_total", value=count)
        reg.describe("latency_seconds", "histogram", buckets=(0.1, 1.0, 10.0))
        reg.observe("latency_seconds", histogram_value)
        return reg

    def test_counters_add_and_histograms_merge(self):
        merged = _fold(
            [self._registry(2, 0.05), self._registry(3, 5.0)]
        )
        samples = {(s.name, s.labels): s.value for s in merged.samples()}
        assert samples[("requests_total", ())] == 5.0
        assert samples[("latency_seconds_count", ())] == 2.0

    def test_merge_associative(self):
        def regs():
            return [self._registry(i + 1, float(i)) for i in range(3)]

        a, b = regs(), regs()
        left = _fold([_fold([a[0], a[1]]), a[2]])
        right = _fold([b[0], _fold([b[1], b[2]])])
        assert _dump_registry(left) == _dump_registry(right)

    def test_self_merge_rejected(self):
        reg = self._registry(1, 1.0)
        with pytest.raises(ValueError):
            reg.merge(reg)

    def test_bucket_mismatch_rejected(self):
        a = MetricsRegistry()
        a.describe("h", "histogram", buckets=(1.0, 2.0))
        a.observe("h", 1.0)
        b = MetricsRegistry()
        b.describe("h", "histogram", buckets=(1.0, 4.0))
        b.observe("h", 1.0)
        with pytest.raises(ValueError):
            a.merge(b)


class TestAbsorb:
    def _fragment(self, clock_s=10.0):
        frag = TraceRecorder()
        frag.advance(clock_s)
        with frag.span("member.window", member=3):
            frag.event("tde.throttle", knob="work_mem")
            with frag.span("tde.inspect"):
                frag.inc("tde_rounds_total")
        return frag

    def test_absorb_equals_inline(self):
        # Recording through a fragment then absorbing must give the same
        # spans/events/seq as recording inline on the main recorder.
        inline = TraceRecorder()
        inline.advance(10.0)
        with inline.span("member.window", member=3):
            inline.event("tde.throttle", knob="work_mem")
            with inline.span("tde.inspect"):
                inline.inc("tde_rounds_total")

        main = TraceRecorder()
        main.absorb(self._fragment())

        def dump(rec):
            return (
                [
                    (s.span_id, s.parent_id, s.name, s.start_sim_s, s.end_sim_s,
                     s.seq, s.end_seq, dict(s.attrs))
                    for s in rec.spans
                ],
                [(e.seq, e.name, e.time_s, dict(e.attrs)) for e in rec.events],
                _dump_registry(rec.metrics),
            )

        assert dump(main) == dump(inline)

    def test_absorb_nests_under_open_span(self):
        main = TraceRecorder()
        with main.span("landscape.window"):
            main.absorb(self._fragment())
        window = main.spans[0]
        assert window.name == "landscape.window"
        members = [s for s in main.spans if s.name == "member.window"]
        assert members[0].parent_id == window.span_id

    def test_absorb_rejects_open_fragment(self):
        frag = TraceRecorder()
        frag.span("left.open").__enter__()
        with pytest.raises(ValueError, match="open"):
            TraceRecorder().absorb(frag)

    def test_span_ids_stay_unique_and_seq_ordered(self):
        main = TraceRecorder()
        for clock in (5.0, 6.0):
            main.absorb(self._fragment(clock))
        ids = [s.span_id for s in main.spans]
        assert len(set(ids)) == len(ids)
        seqs = [s.seq for s in sorted(main.spans, key=lambda s: s.seq)]
        assert seqs == sorted(seqs)


def _square(x):
    return x * x


def _crash(x):
    os._exit(3)


def _raise(x):
    raise RuntimeError(f"boom on {x}")


class _CrashySessionWorker:
    def __init__(self, spec, indices):
        self.indices = indices

    def step(self, command):
        if command == "die":
            os._exit(7)
        return [(i, command) for i in self.indices]


def _crashy_factory(spec, indices):
    return _CrashySessionWorker(spec, indices)


class TestFleetExecutor:
    def test_workers_validation(self):
        with pytest.raises(ValueError):
            FleetExecutor(workers=0)

    def test_backend_selection(self):
        assert FleetExecutor().backend == "sequential"
        assert FleetExecutor(workers=3).backend == "process"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_map_preserves_order(self, workers):
        result = FleetExecutor(workers=workers).map(_square, list(range(7)))
        assert result == [x * x for x in range(7)]

    def test_map_results_isolated(self):
        shared = {"k": [1, 2]}
        a, b = FleetExecutor().map(lambda _: shared, [0, 1])
        assert a == shared and b == shared
        assert a is not shared and a is not b
        assert a["k"] is not b["k"]

    def test_map_worker_exception_is_typed(self):
        with pytest.raises(WorkerCrashed) as info:
            FleetExecutor(workers=2).map(_raise, [1, 2, 3])
        assert "boom" in info.value.reason
        assert info.value.remote_traceback is not None

    def test_map_worker_hard_crash_is_typed_not_a_hang(self):
        with pytest.raises(WorkerCrashed) as info:
            FleetExecutor(workers=2).map(_crash, [1, 2, 3])
        assert info.value.shard == 0

    def test_session_step_merges_in_member_order(self):
        executor = FleetExecutor(workers=2)
        with executor.fleet_session(_crashy_factory, None, 5) as session:
            outs = session.step("tick")
        assert outs == [(i, "tick") for i in range(5)]

    def test_session_worker_crash_is_typed_not_a_hang(self):
        executor = FleetExecutor(workers=2)
        with executor.fleet_session(_crashy_factory, None, 4) as session:
            with pytest.raises(WorkerCrashed) as info:
                session.step("die")
        assert info.value.exitcode == 7

    def test_session_rejects_bad_partition(self):
        executor = FleetExecutor()
        with pytest.raises(ValueError, match="cover"):
            executor.fleet_session(_crashy_factory, None, 4, partition=[[0, 1]])
        with pytest.raises(ValueError, match="cover"):
            executor.fleet_session(
                _crashy_factory, None, 3, partition=[[0, 1], [1, 2]]
            )

    def test_session_custom_partition_same_outputs(self):
        executor = FleetExecutor()
        with executor.fleet_session(_crashy_factory, None, 4) as canonical:
            expected = canonical.step("x")
        with executor.fleet_session(
            _crashy_factory, None, 4, partition=[[3, 0], [2], [1]]
        ) as shuffled:
            assert shuffled.step("x") == expected

    def test_closed_session_rejects_step(self):
        executor = FleetExecutor()
        session = executor.fleet_session(_crashy_factory, None, 2)
        with session:
            pass
        with pytest.raises(RuntimeError, match="closed"):
            session.step("x")


class TestWorkerCrashed:
    def test_message_carries_shard_and_exitcode(self):
        err = WorkerCrashed(2, "worker died", exitcode=-9)
        assert "shard 2" in str(err)
        assert "exit code -9" in str(err)
        assert pickle.loads(pickle.dumps(err)).shard == 2
