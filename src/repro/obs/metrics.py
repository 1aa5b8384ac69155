"""Deterministic metrics registry: counters, gauges, histograms.

The registry absorbs the landscape-level counters that used to live as
scattered attributes (the director's tuning-request list, breaker trip
sums, the TDE's throttle log counts) into one Prometheus-shaped store:
metric *families* keyed by name, each holding samples per label set.
Histograms use **fixed bucket edges** declared up front (or the default
duration edges), so two identical seeded runs produce identical bucket
counts — there is no adaptive binning anywhere.

Rendering to the Prometheus text exposition format lives in
:mod:`repro.cloud.metrics_export` (the repo's scrape-target stand-in);
this module is pure data structure so :mod:`repro.obs.trace` can depend
on it without touching the cloud layer.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

__all__ = ["DEFAULT_BUCKETS", "MetricSample", "MetricFamily", "MetricsRegistry"]

#: Default histogram bucket edges, in simulated seconds — chosen for the
#: durations the control plane actually produces (sub-second adapter
#: retries up to multi-minute GPR retrains). Fixed forever; changing them
#: invalidates golden traces.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)

_KINDS = ("counter", "gauge", "histogram")

#: A label set normalised to a hashable, deterministically-ordered key.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True, slots=True)
class MetricSample:
    """One exported sample: a flattened (name, labels, value) triple.

    Histogram families flatten into ``name_bucket`` (with an ``le``
    label), ``name_sum`` and ``name_count`` samples, mirroring the
    Prometheus exposition data model so tests can round-trip the text
    format back into samples.
    """

    name: str
    labels: LabelKey
    value: float


@dataclass(slots=True)
class _HistogramState:
    """Cumulative-style histogram: per-bucket counts plus sum/count."""

    edges: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    n: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)  # last = +Inf overflow

    def observe(self, value: float) -> None:
        index = len(self.edges)
        for i, edge in enumerate(self.edges):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.n += 1

    def cumulative(self) -> list[int]:
        """Cumulative counts per edge plus the +Inf total, Prometheus-style."""
        out: list[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out


@dataclass(slots=True)
class MetricFamily:
    """All samples of one metric name, across label sets."""

    name: str
    kind: str
    help: str = ""
    buckets: tuple[float, ...] | None = None
    #: counter/gauge: label key -> float; histogram: label key -> state.
    series: dict[LabelKey, float] = field(default_factory=dict)
    histograms: dict[LabelKey, _HistogramState] = field(default_factory=dict)

    def samples(self) -> Iterator[MetricSample]:
        """Flattened samples in deterministic (label-sorted) order."""
        if self.kind == "histogram":
            for key in sorted(self.histograms):
                state = self.histograms[key]
                edges = [*[_format_le(e) for e in state.edges], "+Inf"]
                for le, cum in zip(edges, state.cumulative()):
                    yield MetricSample(
                        f"{self.name}_bucket",
                        tuple(sorted((*key, ("le", le)))),
                        float(cum),
                    )
                yield MetricSample(f"{self.name}_sum", key, state.total)
                yield MetricSample(f"{self.name}_count", key, float(state.n))
            return
        for key in sorted(self.series):
            yield MetricSample(self.name, key, self.series[key])


def _format_le(edge: float) -> str:
    """Bucket edge as Prometheus renders it (no trailing ``.0`` noise)."""
    return f"{edge:g}"


class MetricsRegistry:
    """Counter/gauge/histogram families, auto-created on first touch.

    Parameters
    ----------
    buckets:
        Per-metric histogram bucket edges overriding
        :data:`DEFAULT_BUCKETS` — must be set before the first
        ``observe`` of that metric (fixed edges are the determinism
        contract).
    """

    def __init__(
        self, buckets: Mapping[str, tuple[float, ...]] | None = None
    ) -> None:
        self.families: dict[str, MetricFamily] = {}
        self._bucket_overrides = dict(buckets) if buckets else {}

    # -- declaration -------------------------------------------------------------

    def describe(
        self,
        name: str,
        kind: str,
        help_text: str = "",
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        """Declare a family up front (help text, custom bucket edges)."""
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}; pick from {_KINDS}")
        family = self.families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            if help_text:
                family.help = help_text
            return family
        resolved = buckets if buckets is not None else (
            self._bucket_overrides.get(name, DEFAULT_BUCKETS)
            if kind == "histogram"
            else None
        )
        if resolved is not None:
            if list(resolved) != sorted(resolved) or len(set(resolved)) != len(
                resolved
            ):
                raise ValueError(f"bucket edges must strictly increase: {resolved}")
        family = MetricFamily(name, kind, help_text, resolved)
        self.families[name] = family
        return family

    def _family(self, name: str, kind: str) -> MetricFamily:
        family = self.families.get(name)
        if family is None:
            return self.describe(name, kind)
        if family.kind != kind:
            raise ValueError(f"metric {name!r} is a {family.kind}, not a {kind}")
        return family

    # -- recording ---------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        family = self._family(name, "counter")
        key = _label_key(labels)
        family.series[key] = family.series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        family = self._family(name, "gauge")
        family.series[_label_key(labels)] = value

    def observe(self, name: str, value: float, **labels: str) -> None:
        family = self._family(name, "histogram")
        key = _label_key(labels)
        state = family.histograms.get(key)
        if state is None:
            assert family.buckets is not None
            state = _HistogramState(family.buckets)
            family.histograms[key] = state
        state.observe(value)

    # -- merging -----------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s samples into this registry, in place.

        The order-stable reducer behind sharded fleet execution
        (:mod:`repro.parallel`): counters add, histograms add bucket-wise
        (edges must agree), gauges take *other*'s value (last write wins,
        so callers must merge fragments in canonical member order — the
        same convention a serial run follows). Kind and bucket-edge
        conflicts raise rather than silently coerce.
        """
        if other is self:
            raise ValueError("cannot merge a registry into itself")
        for name in sorted(other.families):
            theirs = other.families[name]
            family = self.describe(name, theirs.kind, theirs.help, theirs.buckets)
            if family.buckets != theirs.buckets:
                raise ValueError(
                    f"histogram {name!r} bucket edges differ: "
                    f"{family.buckets} != {theirs.buckets}"
                )
            if theirs.kind == "histogram":
                for key in sorted(theirs.histograms):
                    state = theirs.histograms[key]
                    mine = family.histograms.get(key)
                    if mine is None:
                        mine = _HistogramState(family.buckets or DEFAULT_BUCKETS)
                        family.histograms[key] = mine
                    for i, count in enumerate(state.counts):
                        mine.counts[i] += count
                    mine.total += state.total
                    mine.n += state.n
            elif theirs.kind == "counter":
                for key in sorted(theirs.series):
                    family.series[key] = family.series.get(key, 0.0) + theirs.series[key]
            else:  # gauge
                for key in sorted(theirs.series):
                    family.series[key] = theirs.series[key]

    # -- inspection --------------------------------------------------------------

    def samples(self) -> Iterator[MetricSample]:
        """Every flattened sample, families in name order."""
        for name in sorted(self.families):
            yield from self.families[name].samples()
