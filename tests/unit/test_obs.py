"""Unit tests for the observability layer (repro.obs + the common seam)."""

import json

import pytest

from repro.common.recording import NULL_RECORDER, NullRecorder, Recorder
from repro.obs.export import jsonl_lines, to_chrome_trace, to_jsonl
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, _label_key
from repro.obs.profile import profile, render_profile
from repro.obs.trace import TraceRecorder


def _value(registry, name, **labels):
    """A counter or gauge value; 0.0 for a never-touched label set."""
    return registry.families[name].series.get(_label_key(labels), 0.0)


class TestNullRecorder:
    def test_is_the_module_default(self):
        assert isinstance(NULL_RECORDER, NullRecorder)
        assert isinstance(NULL_RECORDER, Recorder)

    def test_span_works_as_context_manager(self):
        with NULL_RECORDER.span("anything", instance="svc", extra=1) as span:
            span.set(more=2)  # all no-ops

    def test_every_seam_method_is_a_noop(self):
        NULL_RECORDER.advance(10.0)
        NULL_RECORDER.event("x", instance="svc", attr=1)
        NULL_RECORDER.inc("c", 2.0, label="a")
        NULL_RECORDER.set_gauge("g", 1.0)
        NULL_RECORDER.observe("h", 3.0)


class TestTraceRecorder:
    def test_backwards_clock_rejected(self):
        recorder = TraceRecorder()
        recorder.advance(10.0)
        with pytest.raises(ValueError, match="backwards"):
            recorder.advance(9.0)

    def test_negative_pinned_duration_rejected(self):
        recorder = TraceRecorder()
        with pytest.raises(ValueError, match="duration_s"):
            recorder.span("bad", duration_s=-1.0)

    def test_out_of_stack_close_raises(self):
        recorder = TraceRecorder()
        outer = recorder.span("outer")
        recorder.span("inner")
        with pytest.raises(RuntimeError, match="stack order"):
            outer.__exit__(None, None, None)

    def test_exception_stamps_error_attr_and_closes(self):
        recorder = TraceRecorder()
        with pytest.raises(KeyError):
            with recorder.span("risky"):
                raise KeyError("boom")
        assert recorder.open_spans == 0
        assert recorder.spans[0].attrs["error"] == "KeyError"

    def test_pinned_duration_beats_the_clock(self):
        recorder = TraceRecorder()
        with recorder.span("timed", duration_s=120.0):
            pass
        assert recorder.spans[0].duration_s == 120.0

    def test_untimed_span_closes_at_the_clock(self):
        recorder = TraceRecorder()
        recorder.advance(5.0)
        with recorder.span("window"):
            recorder.advance(35.0)
        span = recorder.spans[0]
        assert (span.start_sim_s, span.end_sim_s) == (5.0, 35.0)

    def test_metrics_forwarded_to_registry(self):
        registry = MetricsRegistry()
        recorder = TraceRecorder(metrics=registry)
        recorder.inc("repro_things_total", instance="svc")
        recorder.set_gauge("repro_level", 3.5)
        recorder.observe("repro_cost_seconds", 42.0)
        assert _value(registry, "repro_things_total", instance="svc") == 1.0
        assert _value(registry, "repro_level") == 3.5
        assert registry.families["repro_cost_seconds"].kind == "histogram"

    def test_host_time_only_with_profiling_enabled(self):
        plain = TraceRecorder()
        with plain.span("a"):
            pass
        assert plain.spans[0].host_s is None
        profiled = TraceRecorder(host_time=True)
        with profiled.span("a"):
            pass
        assert profiled.spans[0].host_s is not None
        assert profiled.spans[0].host_s >= 0.0


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        registry.inc("c", instance="a")
        registry.inc("c", 2.0, instance="a")
        registry.inc("c", instance="b")
        assert _value(registry, "c", instance="a") == 3.0
        assert _value(registry, "c", instance="b") == 1.0
        assert _value(registry, "c", instance="never") == 0.0

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="only go up"):
            registry.inc("c", -1.0)

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.inc("c")
        with pytest.raises(ValueError, match="is a counter"):
            registry.set_gauge("c", 1.0)

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        registry.describe("h", "histogram", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            registry.observe("h", value)
        samples = {
            (s.name, s.labels): s.value for s in registry.samples()
        }
        assert samples[("h_bucket", (("le", "1"),))] == 2.0
        assert samples[("h_bucket", (("le", "10"),))] == 3.0
        assert samples[("h_bucket", (("le", "+Inf"),))] == 4.0
        assert samples[("h_sum", ())] == pytest.approx(106.2)
        assert samples[("h_count", ())] == 4.0

    def test_bucket_edges_must_strictly_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increase"):
            registry.describe("h", "histogram", buckets=(1.0, 1.0, 2.0))

    def test_default_buckets_apply_without_describe(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.1)
        assert registry.families["h"].buckets == DEFAULT_BUCKETS

    def test_samples_in_deterministic_order(self):
        registry = MetricsRegistry()
        registry.inc("z_total", instance="b")
        registry.inc("z_total", instance="a")
        registry.inc("a_total")
        names = [s.name for s in registry.samples()]
        assert names == ["a_total", "z_total", "z_total"]
        z_labels = [s.labels for s in registry.samples() if s.name == "z_total"]
        assert z_labels == [(("instance", "a"),), (("instance", "b"),)]


class TestExports:
    def _recorder(self) -> TraceRecorder:
        recorder = TraceRecorder()
        with recorder.span("outer", instance="svc-0000", knobs=("a", "b")):
            recorder.event("hit", value=1)
            recorder.advance(30.0)
        recorder.inc("repro_hits_total")
        return recorder

    def test_open_span_blocks_export(self):
        recorder = TraceRecorder()
        recorder.span("dangling")
        with pytest.raises(ValueError, match="still open"):
            to_jsonl(recorder)
        with pytest.raises(ValueError, match="still open"):
            to_chrome_trace(recorder)

    def test_jsonl_shape(self):
        lines = list(jsonl_lines(self._recorder(), {"experiment": "unit"}))
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert records[0]["experiment"] == "unit"
        types = [r["type"] for r in records[1:]]
        assert types == ["span", "event", "metric"]
        span = records[1]
        assert span["attrs"]["knobs"] == ["a", "b"]  # tuple coerced
        assert "host_s" not in span  # host time never exported

    def test_chrome_trace_threads_and_events(self):
        payload = json.loads(to_chrome_trace(self._recorder()))
        events = payload["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metadata}
        assert names == {"landscape", "svc-0000"}
        complete = [e for e in events if e["ph"] == "X"]
        assert complete[0]["dur"] == 30.0 * 1e6
        instant = [e for e in events if e["ph"] == "i"]
        assert instant[0]["name"] == "hit"

    def test_identical_runs_serialise_identically(self):
        assert to_jsonl(self._recorder()) == to_jsonl(self._recorder())


class TestProfile:
    def test_self_time_subtracts_children_and_floors_at_zero(self):
        recorder = TraceRecorder()
        with recorder.span("window", duration_s=300.0):
            with recorder.span("retrain", duration_s=110.0):
                pass
            with recorder.span("retrain", duration_s=250.0):
                pass  # children sum past the parent: self floors at 0
        rows = {r.name: r for r in profile(recorder)}
        assert rows["retrain"].count == 2
        assert rows["retrain"].sim_cum_s == 360.0
        assert rows["window"].sim_self_s == 0.0
        assert rows["window"].sim_cum_s == 300.0

    def test_render_hides_host_columns_without_measurements(self):
        recorder = TraceRecorder()
        with recorder.span("a", duration_s=1.0):
            pass
        table = render_profile(profile(recorder))
        assert "host_cum_s" not in table
        assert "sim_cum_s" in table

    def test_render_shows_host_columns_when_profiled(self):
        recorder = TraceRecorder(host_time=True)
        with recorder.span("a", duration_s=1.0):
            pass
        table = render_profile(profile(recorder))
        assert "host_cum_s" in table
