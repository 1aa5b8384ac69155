"""Fig. 9 — tuning requests per minute for a fleet of live databases.

The paper connects 80 live database deployments and compares the tuning
requests generated per minute by (a) the TDE's event-driven triggering,
(b) a periodic approach with a 5-minute period, and (c) a 10-minute
period, over one day of the production workload. Expected shape: the
periodic baselines are flat at ``fleet / period``; the TDE series sits
well below both on average, peaking when the workload pattern shifts
(the 8–11 AM usage surge).

The default arguments run the paper scale, ``fleet_size=80`` over 24 h;
the bench harness passes a smaller fleet for runtime — the series shapes
are unaffected because every member behaves independently.

Execution model (:mod:`repro.parallel`): fleet members are partitioned
into shards; each shard worker owns its members' databases, workloads,
monitoring agents and TDEs, plus a snapshot of the tuner repository.
Per window every member runs its batch and TDE round inside its shard
(the embarrassingly parallel part), then the coordinator — the single
writer of shared state — replays the per-member outcomes in canonical
member order: samples land in the live repository, the director routes
tuning requests, and fitted configs are shipped back to the owning
shard for application at the start of the next window. Repository
samples reach the shard snapshots one window later via the same
broadcast, under both the sequential and the process backend, which is
why ``--workers N`` is output-invariant.

Wire discipline: the repository snapshot crosses to each shard exactly
once, at session setup. After window 0 the broadcast carries only
deltas — fitted knob values and new training samples, both encoded as
plain float tuples. The pipe carries one reply type, :class:`MemberOut`,
and only for members that need tuning or carry a trace fragment. A
member that needs tuning sends its tuning request upstream in that one
reply, as the paper's service instances do (§2, Fig. 1): instance id,
workload name, memory budget, connection count, and its knob and metric
values. Traced runs step the same columnar path; each member's TDE just
records into a fragment. Encoding is value-exact (python floats in
catalog/metric-name order), so every decoded object equals what a
direct object transfer would have carried and outputs stay
byte-identical across worker counts.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

from repro.cloud.fleet import FleetSpec, build_member
from repro.common.recording import NULL_RECORDER, Recorder
from repro.common.rng import stream_root
from repro.core.features import Features
from repro.core.tde.engine import ThrottlingDetectionEngine
from repro.dbsim.batch_engine import MemberBatch
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.knobs import KnobCatalog, postgres_catalog
from repro.dbsim.metrics import METRIC_NAMES, MetricsDelta
from repro.experiments.common import offline_train
from repro.obs.trace import TraceRecorder
from repro.parallel import FleetExecutor
from repro.parallel.stats import SessionStats
from repro.tuners.base import TrainingSample, TuningRequest
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.repository import WorkloadRepository
from repro.workloads.production import ProductionWorkload

__all__ = ["RequestRatePoint", "Fig09Run", "run"]


# -- compact wire codec -----------------------------------------------------
#
# Everything that crosses the pipe after window 0 is built from python
# floats and strings via these helpers, used identically by both
# backends. Decoding against a same-flavor catalog rebuilds objects that
# compare equal to (and compute bit-identically with) the originals.


def _config_values(config: KnobConfiguration) -> tuple[float, ...]:
    """A configuration's knob values in canonical catalog order."""
    return tuple(config[name] for name in config.catalog.names())


def _metric_values(metrics: MetricsDelta) -> tuple[float, ...]:
    """A delta-metric vector's values in canonical metric order."""
    return tuple(metrics.values[name] for name in METRIC_NAMES)


def _decode_config(
    catalog: KnobCatalog, values: tuple[float, ...]
) -> KnobConfiguration:
    return KnobConfiguration(catalog, dict(zip(catalog.names(), values)))


def _decode_metrics(values: tuple[float, ...]) -> MetricsDelta:
    return MetricsDelta(dict(zip(METRIC_NAMES, values)))


#: Wire form of one training sample: (workload_id, knob values, metric
#: values, timestamp).
_WireSample = tuple[str, tuple[float, ...], tuple[float, ...], float]


def _decode_sample(catalog: KnobCatalog, wire: _WireSample) -> TrainingSample:
    workload_id, config_values, metric_values, timestamp_s = wire
    return TrainingSample(
        workload_id,
        _decode_config(catalog, config_values),
        _decode_metrics(metric_values),
        timestamp_s,
    )


@dataclass(frozen=True)
class RequestRatePoint:
    """Requests per minute in one reporting bucket."""

    hour: float
    tde_rpm: float
    periodic_5min_rpm: float
    periodic_10min_rpm: float


@dataclass
class Fig09Run:
    """The three series plus totals."""

    points: list[RequestRatePoint]
    tde_total: int
    periodic_5min_total: int
    periodic_10min_total: int

    def tde_mean_rpm(self) -> float:
        return sum(p.tde_rpm for p in self.points) / len(self.points)

    def tde_peak_hour(self) -> float:
        return max(self.points, key=lambda p: p.tde_rpm).hour


@dataclass(frozen=True)
class _ShardSpec:
    """Everything a shard worker needs to build its members, picklable."""

    fleet: FleetSpec
    repository: WorkloadRepository
    tde_seed: int
    #: Record each member's TDE round into a trace fragment.
    traced: bool = False
    host_time: bool = False


@dataclass(frozen=True)
class WindowCommand:
    """One window's instructions, broadcast to every shard.

    Past window 0 this is the *only* thing a shard receives, and it
    carries no objects — just float tuples (see the wire codec above).
    """

    window_s: float
    #: Fitted knob values from last window's tuning requests (canonical
    #: catalog order), applied to the owning member's master (reload)
    #: before this window's batch runs.
    apply: dict[int, tuple[float, ...]] = field(default_factory=dict)
    #: Wire-encoded samples the coordinator added to the live repository
    #: last window, in canonical order — keeps shard repository snapshots
    #: one window behind the coordinator, identically under every backend.
    new_samples: tuple[_WireSample, ...] = ()


@dataclass(frozen=True)
class MemberRequest:
    """A member's tuning request, wire-encoded.

    Carries everything the coordinator reads to serve it: who asks, the
    budget its fitted config must respect, and the window's knob and
    metric values as python floats.
    """

    instance_id: str
    workload_name: str
    #: Memory granted to the database process (MB).
    memory_limit_mb: float
    active_connections: int
    #: Knob values in canonical catalog order.
    config_values: tuple[float, ...]
    #: Delta-metric values in ``METRIC_NAMES`` order.
    metric_values: tuple[float, ...]
    #: :meth:`TDEReport.focus`: the throttle class and knobs.
    throttle_class: str | None
    throttle_knobs: tuple[str, ...]

    def wire_sample(self, timestamp_s: float) -> _WireSample:
        """The training sample this request adds, in wire form."""
        return (
            self.workload_name,
            self.config_values,
            self.metric_values,
            timestamp_s,
        )


@dataclass(frozen=True)
class MemberOut:
    """One member's reply for one window.

    A member replies only when it needs tuning or carries a trace
    fragment.
    """

    index: int
    #: The member's tuning request when it needs tuning, else None.
    request: MemberRequest | None = None
    #: Traced runs only: the member's TDE round.
    fragment: TraceRecorder | None = None


class Fig09ShardWorker:
    """Owns one shard's members; steps them one window at a time."""

    def __init__(self, spec: _ShardSpec, indices: tuple[int, ...]) -> None:
        # Every backend gives the shard its own repository snapshot via an
        # explicit pickle round-trip, so in-process (sequential) shards
        # behave exactly like forked/spawned ones.
        self.repository: WorkloadRepository = pickle.loads(
            pickle.dumps(spec.repository)
        )
        self.spec = spec
        self.indices = tuple(sorted(indices))
        self.members = {i: build_member(spec.fleet, i) for i in self.indices}
        self.tdes = {
            i: ThrottlingDetectionEngine(
                member.instance_id,
                member.deployment.service.master,
                self.repository,
                seed=spec.tde_seed + i,
            )
            for i, member in self.members.items()
        }
        self._engine = MemberBatch(
            [self.members[i].deployment.service.master for i in self.indices]
        )
        self._catalog = self.members[self.indices[0]].deployment.service.master.catalog
        self.clock_s = 0.0

    def step(self, command: WindowCommand) -> list[tuple[int, MemberOut]]:
        for wire in command.new_samples:
            self.repository.add(_decode_sample(self._catalog, wire))
        # Apply pending configs in member order, generate every member's
        # batch, then step the whole shard through the vectorized engine.
        # Members draw only from their own keyed substreams, so the phase
        # reordering is draw-exact against a serial per-member loop.
        for i in self.indices:
            fitted = command.apply.get(i)
            if fitted is not None:
                master = self.members[i].deployment.service.master
                master.apply_config(
                    _decode_config(master.catalog, fitted), mode="reload"
                )
        batches = [
            self.members[i].workload.batch(
                command.window_s,
                start_time_s=self.clock_s + self.members[i].phase_offset_s,
            )
            for i in self.indices
        ]
        results = self._engine.step_window(batches)
        outs: list[tuple[int, MemberOut]] = []
        for i, result in zip(self.indices, results):
            member = self.members[i]
            member.monitoring.ingest(result)
            fragment = None
            if self.spec.traced:
                fragment = TraceRecorder(host_time=self.spec.host_time)
                fragment.advance(self.clock_s)
            tde = self.tdes[i]
            tde.recorder = fragment if fragment is not None else NULL_RECORDER
            report = tde.inspect(result)
            request = None
            if report.needs_tuning:
                master = member.deployment.service.master
                throttle_class, throttle_knobs = report.focus()
                request = MemberRequest(
                    member.instance_id,
                    result.batch.workload_name,
                    master.vm.db_memory_limit_mb,
                    master.active_connections,
                    _config_values(result.config),
                    tuple(map(float, _metric_values(result.metrics))),
                    throttle_class,
                    throttle_knobs,
                )
            if request is not None or fragment is not None:
                outs.append((i, MemberOut(i, request, fragment)))
        self.clock_s += command.window_s
        return outs


def _shard_factory(spec: _ShardSpec, indices: tuple[int, ...]) -> Fig09ShardWorker:
    """Top-level factory so every multiprocessing start method can use it."""
    return Fig09ShardWorker(spec, indices)


def run(
    fleet_size: int = 80,
    hours: float = 24.0,
    window_s: float = 300.0,
    bucket_s: float = 3600.0,
    warmup_hours: float = 2.0,
    seed: int = 0,
    recorder: Recorder | None = None,
    workers: int = 1,
    start_method: str | None = None,
    stats: SessionStats | None = None,
    features: Features = Features(),
) -> Fig09Run:
    """Simulate the fleet for *hours* and count tuning requests.

    TDE members get real recommendations applied (a good recommendation
    suppresses the next throttle, which the paper calls out as directly
    affecting the request rate); periodic counts are analytic
    (``fleet / period``, what a period-driven director would emit).
    A *recorder* (the trace harness) observes the TDE rounds and the
    director's routing; None keeps the no-op default. *workers* selects
    the sharded backend (1: in-process sequential; N: one worker process
    per shard) — output is byte-identical across worker counts. *stats*,
    if given, collects the executor session's pipe-seam accounting
    (bytes and per-phase times per window) without affecting results.
    *features* arms the surrogate screen and knob selection on the
    director's tuner (default none; flag-off output is byte-identical
    to builds without the tiers). The director runs without the service
    facade here, so a governor cannot be armed.
    """
    if features.governor is not None:
        raise ValueError("fig09 has no service facade to arm a governor on")
    rec = recorder if recorder is not None else NULL_RECORDER
    catalog = postgres_catalog()
    # Bootstrap the tuner with a *stress-rate* offline session: the
    # samples must rank configurations, and good recommendations are what
    # keeps throttles from re-firing (the paper: "if the tuner generates
    # good configuration ... there are pretty less chances of a throttle").
    repository = offline_train(
        catalog,
        [
            ProductionWorkload(
                mean_rps=10_000.0, data_size_gb=30.0, seed=seed + 90,
                name="production-offline",
            )
        ],
        n_configs=14,
        seed=seed + 91,
    )
    paper_scale = fleet_size > 24
    tuner = OtterTuneTuner(
        catalog,
        repository,
        n_candidates=150,
        # The shared repository collects dozens of fresh fleet samples per
        # window at paper scale; a tighter (and cheaper, the fit is cubic)
        # training window still spans several windows of recent evidence.
        max_train_samples=150 if paper_scale else 300,
        memory_limit_mb=None,  # repaired per-member below
        seed=seed + 92,
    )
    from repro.core.director.config_director import ConfigDirector
    from repro.core.director.load_balancer import LeastLoadedBalancer, TunerInstance

    tuner.bind_recorder(rec)
    director = ConfigDirector(
        LeastLoadedBalancer([TunerInstance("tuner-00", tuner)]),
        recorder=rec,
        features=features,
    )
    # The TDE reads a bounded sample of each member's streaming log; at
    # paper scale a smaller per-window sample keeps the day-long 80-member
    # simulation tractable while the template/class statistics it feeds
    # stay well-populated (64 queries per 5-minute window per member).
    traced = isinstance(rec, TraceRecorder)
    spec = _ShardSpec(
        fleet=FleetSpec(
            size=fleet_size,
            flavor="postgres",
            root=stream_root(seed),
            sample_size=64 if paper_scale else 200,
        ),
        repository=repository,
        tde_seed=seed,
        traced=traced,
        host_time=traced and rec.host_time,  # type: ignore[union-attr]
    )
    executor = FleetExecutor(workers=workers, start_method=start_method)
    if stats is not None:
        # The window-0 setup cost. Measured once, at the session
        # boundary — never inside the window loop.
        stats.snapshot_bytes = len(pickle.dumps(repository))

    request_times: list[float] = []
    warmup_end = warmup_hours * 3600.0
    windows = int((hours + warmup_hours) * 3600.0 / window_s)
    clock_s = 0.0
    pending: dict[int, tuple[float, ...]] = {}
    delta: list[_WireSample] = []
    with executor.fleet_session(
        _shard_factory, spec, fleet_size, stats=stats
    ) as session:
        for _ in range(windows):
            now = clock_s - warmup_end
            rec.advance(clock_s)
            with rec.span(
                "landscape.window", duration_s=window_s, fleet=fleet_size
            ):
                outs = session.step(
                    WindowCommand(
                        window_s=window_s,
                        apply=pending,
                        new_samples=tuple(delta),
                    )
                )
                pending, delta = {}, []
                for _, out in outs:
                    if out.fragment is not None:
                        assert isinstance(rec, TraceRecorder)
                        rec.absorb(out.fragment)
                for idx, out in outs:
                    ask = out.request
                    if ask is None:
                        continue
                    config = _decode_config(catalog, ask.config_values)
                    metrics = _decode_metrics(ask.metric_values)
                    if now >= 0.0:
                        # The fleet converges during warm-up (floors
                        # settle, caps get filtered); counting starts
                        # afterwards, like the paper's long-connected
                        # deployments.
                        request_times.append(now)
                    repository.add(
                        TrainingSample(ask.workload_name, config, metrics, now)
                    )
                    delta.append(ask.wire_sample(now))
                    split = director.handle_tuning_request(
                        TuningRequest(
                            ask.instance_id,
                            ask.workload_name,
                            config,
                            metrics,
                            throttle_class=ask.throttle_class,
                            throttle_knobs=ask.throttle_knobs,
                            timestamp_s=now,
                        )
                    )
                    pending[idx] = _config_values(
                        split.reloadable.fitted_to_budget(
                            ask.memory_limit_mb, ask.active_connections
                        )
                    )
                director.balancer.drain(window_s)
            clock_s += window_s
    if stats is not None:
        # What the pre-delta protocol would have pickled at the last
        # window: the repository with every ingested sample. The honest
        # counterfactual for the delta-only saving.
        stats.final_snapshot_bytes = len(pickle.dumps(repository))

    points: list[RequestRatePoint] = []
    buckets = int(hours * 3600.0 / bucket_s)
    for b in range(buckets):
        start, end = b * bucket_s, (b + 1) * bucket_s
        count = sum(1 for t in request_times if start <= t < end)
        points.append(
            RequestRatePoint(
                hour=start / 3600.0,
                tde_rpm=count / (bucket_s / 60.0),
                periodic_5min_rpm=fleet_size / 5.0,
                periodic_10min_rpm=fleet_size / 10.0,
            )
        )
    minutes = hours * 60.0
    return Fig09Run(
        points=points,
        tde_total=len(request_times),
        periodic_5min_total=int(fleet_size * minutes / 5.0),
        periodic_10min_total=int(fleet_size * minutes / 10.0),
    )
