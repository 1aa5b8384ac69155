"""Tuner API: requests, recommendations, training samples.

Tuner instances (§2.1) are interchangeable behind this interface — the
config director load-balances :class:`TuningRequest` objects across them
and forwards the resulting :class:`Recommendation` to the apply pipeline.
Both the BO-style (:mod:`repro.tuners.ottertune`) and RL-style
(:mod:`repro.tuners.cdbtune`) tuners implement :class:`Tuner`.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.common.recording import NULL_RECORDER, Recorder

if TYPE_CHECKING:
    from repro.core.features import Features
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.knobs import KnobCatalog
from repro.dbsim.metrics import MetricsDelta

__all__ = [
    "TrainingSample",
    "TunerUnavailable",
    "TuningRequest",
    "Recommendation",
    "Tuner",
    "config_to_vector",
    "vector_to_config",
    "vectors_to_values",
    "values_to_vectors",
]


class TunerUnavailable(RuntimeError):
    """A tuner instance cannot serve a recommendation right now.

    Raised by deployed tuner instances when the backing deployment is
    down or unreachable. The config director treats it as a routing
    failure: it counts against the instance's circuit breaker and the
    request is retried on another instance, never propagated to the
    service instance that asked for tuning.
    """


def vectors_to_values(vectors: np.ndarray, catalog: KnobCatalog) -> np.ndarray:
    """Batched :func:`vector_to_config` without materialising configs.

    *vectors* is (n, d) in normalised [0, 1] space; the result is (n, d)
    clamped knob values in catalog order — exactly the values a
    :class:`KnobConfiguration` built via :func:`vector_to_config` would
    hold, row by row.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape[-1] != len(catalog):
        raise ValueError(
            f"vector width {vectors.shape[-1]} != catalog size {len(catalog)}"
        )
    mins, maxs, log_mask, spans = catalog.vector_transform_arrays()
    with np.errstate(divide="ignore", invalid="ignore"):
        log_values = mins * (maxs / np.where(mins > 0, mins, 1.0)) ** vectors
    linear_values = mins + vectors * spans
    values = np.where(log_mask, log_values, linear_values)
    return np.clip(values, mins, maxs)


def values_to_vectors(values: np.ndarray, catalog: KnobCatalog) -> np.ndarray:
    """Batched :func:`config_to_vector` over an (n, d) knob-value matrix."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != len(catalog):
        raise ValueError(
            f"value width {values.shape[-1]} != catalog size {len(catalog)}"
        )
    mins, maxs, log_mask, spans = catalog.vector_transform_arrays()
    safe_mins = np.where(mins > 0, mins, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_units = np.log(values / safe_mins) / np.log(maxs / safe_mins)
        linear_units = (values - mins) / spans
    return np.where(log_mask, log_units, linear_units)


def config_to_vector(config: KnobConfiguration) -> np.ndarray:
    """Normalise a configuration to a [0, 1]^d vector (catalog order).

    Ratio-scaled knobs (see :attr:`KnobDef.log_scale`) are log-transformed
    first so that, e.g., a 16 MB and a 3 GB buffer pool land far apart in
    tuning space while 60 GB and 63 GB land close together.
    """
    values: list[float] = []
    for knob in config.catalog:
        value = config[knob.name]
        if knob.log_scale:
            values.append(
                np.log(value / knob.min_value)
                / np.log(knob.max_value / knob.min_value)
            )
        else:
            span = knob.max_value - knob.min_value
            values.append((value - knob.min_value) / span)
    return np.array(values, dtype=float)


def vector_to_config(
    vector: np.ndarray, catalog: KnobCatalog
) -> KnobConfiguration:
    """Inverse of :func:`config_to_vector` (values clamped to ranges)."""
    if len(vector) != len(catalog):
        raise ValueError(
            f"vector length {len(vector)} != catalog size {len(catalog)}"
        )
    values: dict[str, float] = {}
    for knob, raw_unit in zip(catalog, vector):
        unit = float(raw_unit)
        if knob.log_scale:
            value = knob.min_value * (knob.max_value / knob.min_value) ** unit
        else:
            value = knob.min_value + unit * (knob.max_value - knob.min_value)
        values[knob.name] = knob.clamp(value)
    return KnobConfiguration(catalog, values)


@dataclass(frozen=True, slots=True)
class TrainingSample:
    """One (config, delta-metrics) observation from a workload execution.

    ``quality`` is the §1 "high quality samples" notion: samples captured
    while the database actually needed tuning (e.g. at a TDE throttle)
    carry signal; samples from idle windows mostly carry noise. The
    repository computes a quality score; TDE-gated pipelines only upload
    high-quality samples.
    """

    workload_id: str
    config: KnobConfiguration
    metrics: MetricsDelta
    timestamp_s: float = 0.0

    @property
    def objective(self) -> float:
        """The tuning objective (achieved throughput)."""
        return self.metrics.throughput


@dataclass(frozen=True, slots=True)
class TuningRequest:
    """A request for a new configuration recommendation.

    ``throttle_class`` / ``throttle_knobs`` carry the TDE's diagnosis: the
    §3 classification exists precisely so the tuner knows *which* knobs
    the workload is throttling on, and recommendations honour it (see
    :func:`boost_throttled_knobs`).
    """

    instance_id: str
    workload_id: str
    config: KnobConfiguration
    metrics: MetricsDelta
    throttle_class: str | None = None
    throttle_knobs: tuple[str, ...] = ()
    timestamp_s: float = 0.0


def boost_throttled_knobs(
    config: KnobConfiguration, request: TuningRequest
) -> KnobConfiguration:
    """Raise the throttle-implicated memory knobs geometrically.

    A memory throttle means the named working-area knobs are too small
    for the live queries (plans spill). Whatever the surrogate proposed,
    the recommendation must not leave those knobs below twice their
    current value — successive throttles then converge on the demand in a
    handful of doublings instead of re-firing forever.
    """
    if not request.throttle_knobs:
        return config
    updates: dict[str, float] = {}
    for name in request.throttle_knobs:
        if name not in config.catalog:
            continue
        knob = config.catalog.get(name)
        if knob.knob_class.value != "memory" or knob.restart_required:
            continue
        floor = knob.clamp(2.0 * request.config[name])
        if config[name] < floor:
            updates[name] = floor
    return config.with_values(updates) if updates else config


@dataclass(slots=True, init=False)
class Recommendation:
    """A recommended configuration for one service instance.

    ``ranked_knobs`` (most important knob first) is a report derived from
    the tuner's training set, and computing it can cost more than the
    recommendation itself. A tuner may therefore pass a zero-argument
    callable instead of the list: it is called on the first read of
    :attr:`ranked_knobs` and its result kept. Equality and ``repr`` cover
    the recommendation, not the report, so neither forces a solve;
    pickling or copying resolves it first, so the callable never travels
    with the copy.
    """

    instance_id: str
    config: KnobConfiguration
    source: str
    expected_improvement: float
    _ranked: list[str] | Callable[[], list[str]] = field(repr=False, compare=False)

    def __init__(
        self,
        instance_id: str,
        config: KnobConfiguration,
        source: str,
        expected_improvement: float = 0.0,
        ranked_knobs: list[str] | Callable[[], list[str]] | None = None,
    ) -> None:
        self.instance_id = instance_id
        self.config = config
        self.source = source
        self.expected_improvement = expected_improvement
        self._ranked = [] if ranked_knobs is None else ranked_knobs

    @property
    def ranked_knobs(self) -> list[str]:
        """Knob names by importance, resolved on first read."""
        if callable(self._ranked):
            self._ranked = self._ranked()
        return self._ranked

    def __reduce__(
        self,
    ) -> tuple[type[Recommendation], tuple[str, KnobConfiguration, str, float, list[str]]]:
        """Pickle and copy by value, with the ranking resolved."""
        return (
            Recommendation,
            (
                self.instance_id,
                self.config,
                self.source,
                self.expected_improvement,
                self.ranked_knobs,
            ),
        )

    def restart_required_changes(
        self, current: KnobConfiguration
    ) -> list[str]:
        """Names of changed knobs that need a restart (non-tunable, §4)."""
        diff = current.diff(self.config)
        return [
            name
            for name in diff
            if self.config.catalog.get(name).restart_required
        ]


class Tuner(abc.ABC):
    """A tuner instance: absorbs samples, answers tuning requests."""

    name: str = "tuner"
    #: Observability seam: the landscape binds its recorder here so tuner
    #: implementations can emit trace events; the default no-op recorder
    #: keeps unbound tuners byte-identical.
    recorder: Recorder = NULL_RECORDER

    def bind_recorder(self, recorder: Recorder) -> None:
        """Attach the landscape's recorder (wrappers forward to inners)."""
        self.recorder = recorder

    def configure(self, features: "Features") -> None:
        """Adopt the opt-in tiers in *features* that apply to this tuner.

        The config director offers the landscape's feature bundle to
        every tuner instance; a tier the bundle leaves off is left off.
        The default ignores the bundle: each tier is opt-in per
        implementation, so new tuner kinds stay byte-identical until
        they explicitly support one.
        """

    @abc.abstractmethod
    def observe(self, sample: TrainingSample) -> None:
        """Absorb one training sample (store it and learn from it)."""

    def learn(self, sample: TrainingSample) -> None:
        """Learn from a sample *without* storing it anywhere.

        The AutoDBaaS facade stores each uploaded sample in the shared
        repository exactly once and then calls ``learn`` on every tuner
        instance — repository-backed tuners (BO) read the store and need
        no per-instance copy, while policy-based tuners (RL) must see the
        stream to close their pending transitions. Default: no-op.
        """

    @abc.abstractmethod
    def recommend(self, request: TuningRequest) -> Recommendation:
        """Produce a new configuration for *request*."""

    @abc.abstractmethod
    def recommendation_cost_s(self) -> float:
        """Wall-clock cost of producing one recommendation.

        The §1 "recommendation-cost": OtterTune's GPR retrain takes
        100–120 s at production workload sizes, binding one deployment to
        3–4 serviced instances; RL tuners answer in near-constant time.
        The config director uses this for load accounting (Fig. 9).
        """
