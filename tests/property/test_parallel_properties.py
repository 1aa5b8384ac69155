"""Property-based tests (hypothesis) for deterministic parallel execution.

The determinism contract of :mod:`repro.parallel` is a set of algebraic
properties — results invariant to shard count and member ordering, the
registry reducer equal to serial recording, absorbed traces preserving
span identity and time order. Hypothesis drives them over arbitrary
partitions, orderings and sample streams; everything here runs on the
in-process sequential backend, which shares the merge/replay code paths
with the process backend (the integration parity suite covers the
process boundary itself).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import substream
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.parallel import FleetExecutor, partition_members


def _fold(registries):
    """Fold *registries* left to right into a fresh one, in order."""
    out = MetricsRegistry()
    for registry in registries:
        out.merge(registry)
    return out


# -- a tiny deterministic shard worker ------------------------------------------


class _DigestWorker:
    """Per-member keyed-substream draws — the determinism contract in
    miniature: a member's output may depend only on the root seed, the
    member index and the step count, never on shard placement."""

    def __init__(self, spec, indices):
        self.root = spec
        self.indices = indices
        self.steps = 0

    def step(self, command):
        self.steps += 1
        return [
            (
                i,
                float(
                    substream(self.root, "member", i, self.steps).integers(
                        0, 2**32
                    )
                ),
            )
            for i in self.indices
        ]


def _digest_factory(spec, indices):
    return _DigestWorker(spec, indices)


partitions = st.integers(min_value=1, max_value=12)


class TestShardInvariance:
    @given(
        n_members=st.integers(min_value=1, max_value=24),
        n_shards_a=partitions,
        n_shards_b=partitions,
        root=st.integers(min_value=0, max_value=2**31),
        steps=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_results_invariant_to_shard_count(
        self, n_members, n_shards_a, n_shards_b, root, steps
    ):
        def run(n_shards):
            executor = FleetExecutor()
            partition = partition_members(n_members, n_shards)
            with executor.fleet_session(
                _digest_factory, root, n_members, partition=partition
            ) as session:
                return [session.step(None) for _ in range(steps)]

        assert run(n_shards_a) == run(n_shards_b)

    @given(
        n_members=st.integers(min_value=1, max_value=16),
        root=st.integers(min_value=0, max_value=2**31),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_results_invariant_to_member_ordering(self, n_members, root, order):
        # Any disjoint cover of the member range — members shuffled into
        # arbitrarily sized shards in arbitrary order — merges back to
        # the canonical serial output.
        members = list(range(n_members))
        order.shuffle(members)
        shards = []
        while members:
            take = order.randint(1, len(members))
            shards.append(members[:take])
            members = members[take:]

        executor = FleetExecutor()
        with executor.fleet_session(
            _digest_factory, root, n_members
        ) as canonical:
            expected = canonical.step(None)
        with executor.fleet_session(
            _digest_factory, root, n_members, partition=shards
        ) as shuffled:
            assert shuffled.step(None) == expected

    @given(
        n_members=st.integers(min_value=0, max_value=64),
        n_shards=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_is_a_balanced_exact_cover(self, n_members, n_shards):
        shards = partition_members(n_members, n_shards)
        assert [i for shard in shards for i in shard] == list(range(n_members))
        assert all(shard for shard in shards)
        if shards:
            sizes = [len(s) for s in shards]
            assert max(sizes) - min(sizes) <= 1


# -- metrics reducer -------------------------------------------------------------

# Integer-valued increments: float addition over them is exact, so the
# reducer's algebra (serial equivalence, associativity) can be asserted
# bit-for-bit. With arbitrary floats the *sums* differ in the last ulp
# across groupings — which is why the production reducers always merge
# in one fixed canonical order, a guarantee the parity suite pins on
# real experiment output.
_events = st.lists(
    st.tuples(
        st.sampled_from(["alpha_total", "beta_total", "gamma_seconds"]),
        st.integers(min_value=0, max_value=1000).map(float),
    ),
    max_size=30,
)


def _record(reg, events, **labels):
    for name, value in events:
        if name.endswith("_seconds"):
            reg.observe(name, value, **labels)
        else:
            reg.inc(name, value=value, **labels)


def _dump(reg):
    return sorted((s.name, s.labels, s.value) for s in reg.samples())


class TestRegistryReducer:
    @given(shards=st.lists(_events, min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_merged_equals_serial(self, shards):
        # Recording shard-by-shard into separate registries and merging
        # must equal recording every event into one registry serially.
        serial = MetricsRegistry()
        for events in shards:
            _record(serial, events)
        parts = []
        for events in shards:
            reg = MetricsRegistry()
            _record(reg, events)
            parts.append(reg)
        assert _dump(_fold(parts)) == _dump(serial)

    @given(a=_events, b=_events, c=_events)
    @settings(max_examples=80, deadline=None)
    def test_merge_associative(self, a, b, c):
        def reg(events):
            r = MetricsRegistry()
            _record(r, events)
            return r

        left = _fold([_fold([reg(a), reg(b)]), reg(c)])
        right = _fold([reg(a), _fold([reg(b), reg(c)])])
        assert _dump(left) == _dump(right)

    @given(
        shards=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["alpha_total", "gamma_seconds"]),
                    st.floats(
                        min_value=0.0, max_value=1e6, allow_nan=False
                    ),
                ),
                max_size=20,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_disjoint_series_merge_exactly_for_any_floats(self, shards):
        # Per-member series carry the member's instance label, so shards
        # never share an accumulator — merging is then exact for any
        # float values, not just integer-representable ones.
        serial = MetricsRegistry()
        for shard, events in enumerate(shards):
            _record(serial, events, instance=f"svc-{shard:04d}")
        parts = []
        for shard, events in enumerate(shards):
            reg = MetricsRegistry()
            _record(reg, events, instance=f"svc-{shard:04d}")
            parts.append(reg)
        assert _dump(_fold(parts)) == _dump(serial)


# -- trace absorb ----------------------------------------------------------------

_fragment_plans = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["tde.inspect", "member.window", "db.step"]),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=4,
    ),
    min_size=1,
    max_size=5,
)


def _build_fragment(plan, clock_s):
    frag = TraceRecorder()
    frag.advance(clock_s)
    for name, n_events in plan:
        with frag.span(name):
            for k in range(n_events):
                frag.event(f"{name}.event", k=k)
    return frag


class TestAbsorbProperties:
    @given(
        plans=_fragment_plans,
        clock=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_absorbed_span_ids_unique_and_ordered(self, plans, clock):
        main = TraceRecorder()
        main.advance(clock)
        with main.span("landscape.window"):
            for plan in plans:
                main.absorb(_build_fragment(plan, clock))
        ids = [s.span_id for s in main.spans]
        assert len(set(ids)) == len(ids)
        # seq numbers are issued monotonically and spans are stored in
        # open order, so both views must agree.
        seqs = [s.seq for s in main.spans]
        assert seqs == sorted(seqs)
        assert all(s.end_seq > s.seq for s in main.spans)
        # simulated time never runs backwards through a merged trace.
        starts = [s.start_sim_s for s in main.spans]
        assert starts == sorted(starts)
        assert all(s.end_sim_s >= s.start_sim_s for s in main.spans)

    @given(plans=_fragment_plans)
    @settings(max_examples=50, deadline=None)
    def test_absorb_matches_inline_recording(self, plans):
        inline = TraceRecorder()
        merged = TraceRecorder()
        for plan in plans:
            for name, n_events in plan:
                with inline.span(name):
                    for k in range(n_events):
                        inline.event(f"{name}.event", k=k)
            merged.absorb(_build_fragment(plan, 0.0))
        assert [
            (s.span_id, s.parent_id, s.seq, s.end_seq, s.name)
            for s in merged.spans
        ] == [
            (s.span_id, s.parent_id, s.seq, s.end_seq, s.name)
            for s in inline.spans
        ]
        assert [(e.seq, e.name, e.attrs) for e in merged.events] == [
            (e.seq, e.name, e.attrs) for e in inline.events
        ]
