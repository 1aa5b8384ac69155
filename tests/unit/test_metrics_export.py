"""Unit tests for the Prometheus text exposition in cloud.metrics_export.

Covers the satellite checklist: label escaping, empty-series families,
histogram bucket rendering, and a round-trip through a minimal
exposition parser to prove the output is machine-readable — not just
string-shaped.
"""

import pytest

from repro.cloud.metrics_export import (
    _sanitise_label,
    render_registry,
)
from repro.obs.metrics import MetricsRegistry

# ---------------------------------------------------------------------------
# A minimal exposition-format parser — just enough of the v0.0.4 grammar
# to round-trip what render_registry emits back into (name, labels, value).
# ---------------------------------------------------------------------------


def _unescape(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_exposition(text: str):
    """Yield (name, labels, value) per sample line; skip comments."""
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        body, _, raw_value = line.rpartition(" ")
        if "{" in body:
            name, _, label_blob = body.partition("{")
            labels = []
            blob = label_blob.rstrip("}")
            while blob:
                key, _, rest = blob.partition('="')
                # Scan for the closing quote, honouring escapes.
                i = 0
                while i < len(rest):
                    if rest[i] == "\\":
                        i += 2
                        continue
                    if rest[i] == '"':
                        break
                    i += 1
                labels.append((key, _unescape(rest[:i])))
                blob = rest[i + 1 :].lstrip(",")
            label_key = tuple(labels)
        else:
            name, label_key = body, ()
        yield name, label_key, float(raw_value)


class TestLabelEscaping:
    @pytest.mark.parametrize(
        ("raw", "escaped"),
        [
            ("plain", "plain"),
            ('with"quote', 'with\\"quote'),
            ("back\\slash", "back\\\\slash"),
            ("line\nbreak", "line\\nbreak"),
            ('all\\"\nthree', 'all\\\\\\"\\nthree'),
        ],
    )
    def test_sanitise(self, raw, escaped):
        assert _sanitise_label(raw) == escaped

    def test_escaped_labels_render_and_parse_back(self):
        registry = MetricsRegistry()
        registry.inc("c_total", instance='sv"c\\one\ntwo')
        text = render_registry(registry)
        samples = list(_parse_exposition(text))
        assert samples == [
            ("c_total", (("instance", 'sv"c\\one\ntwo'),), 1.0)
        ]


class TestEmptySeries:
    def test_described_family_renders_headers_without_samples(self):
        registry = MetricsRegistry()
        registry.describe("repro_events_total", "counter", help_text="Events.")
        text = render_registry(registry)
        assert "# HELP repro_events_total Events.\n" in text
        assert "# TYPE repro_events_total counter\n" in text
        assert list(_parse_exposition(text)) == []

    def test_empty_registry_renders_to_bare_newline(self):
        assert render_registry(MetricsRegistry()) == "\n"


class TestSafetyFamilies:
    def test_describe_counter_families_renders_safety_headers(self):
        from repro.cloud.metrics_export import describe_counter_families
        from repro.core.director import SAFETY_METRIC_FAMILIES

        registry = MetricsRegistry()
        describe_counter_families(registry, SAFETY_METRIC_FAMILIES)
        text = render_registry(registry)
        for name in SAFETY_METRIC_FAMILIES:
            assert f"# TYPE {name} counter\n" in text
        # Described-but-empty families expose no samples (golden digests
        # stay stable for ungoverned runs).
        assert list(_parse_exposition(text)) == []
        # A governed run's increments then render as ordinary samples.
        registry.inc("repro_reverts_total", instance="svc-1")
        parsed = list(_parse_exposition(render_registry(registry)))
        assert ("repro_reverts_total", (("instance", "svc-1"),), 1.0) in parsed


class TestHistogramRendering:
    def test_buckets_sum_count_shape(self):
        registry = MetricsRegistry()
        registry.describe(
            "repro_cost_seconds",
            "histogram",
            buckets=(0.5, 2.0),
            help_text="Cost.",
        )
        for value in (0.25, 1.0, 10.0):
            registry.observe("repro_cost_seconds", value)
        text = render_registry(registry)
        assert "# TYPE repro_cost_seconds histogram" in text
        assert 'repro_cost_seconds_bucket{le="0.5"} 1' in text
        assert 'repro_cost_seconds_bucket{le="2"} 2' in text
        assert 'repro_cost_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_cost_seconds_sum 11.25" in text
        assert "repro_cost_seconds_count 3" in text

    def test_bucket_counts_are_cumulative_in_the_rendered_text(self):
        registry = MetricsRegistry()
        registry.describe("h", "histogram", buckets=(1.0, 2.0, 3.0))
        for value in (0.5, 1.5, 2.5):
            registry.observe("h", value)
        parsed = {
            labels: value
            for name, labels, value in _parse_exposition(
                render_registry(registry)
            )
            if name == "h_bucket"
        }
        counts = [
            parsed[(("le", edge),)] for edge in ("1", "2", "3", "+Inf")
        ]
        assert counts == sorted(counts)
        assert counts == [1.0, 2.0, 3.0, 3.0]


class TestRoundTrip:
    def test_registry_samples_survive_the_exposition_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("repro_applies_total", instance="svc-0000", outcome="applied")
        registry.inc("repro_applies_total", 2.0, instance="svc-0001", outcome="rejected")
        registry.set_gauge("repro_throughput_tps", 812.5, instance="svc-0000")
        registry.observe("repro_apply_backoff_seconds", 1.5)
        parsed = sorted(_parse_exposition(render_registry(registry)))
        expected = sorted(
            (s.name, s.labels, s.value) for s in registry.samples()
        )
        assert parsed == expected


class TestDeterminism:
    def test_identical_registries_render_byte_identically(self):
        def build() -> str:
            registry = MetricsRegistry()
            registry.inc("b_total", instance="z")
            registry.inc("b_total", instance="a")
            registry.observe("a_seconds", 0.75)
            registry.set_gauge("c_level", 1.0)
            return render_registry(registry)

        assert build() == build()
