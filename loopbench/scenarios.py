"""The benchmark's workloads, driven through public entry points.

Every workload is a closed loop: the simulated clock advances one
monitoring window only after that window's work has returned, so the
load is whatever one process at ``workers=1`` completes. A *rep* builds
the workload from one seed and steps its warm-up windows (together the
rep's set-up), then a fixed number of timed windows. Reps of one seed
see identical inputs and must produce identical outputs.

- ``fleet-tde`` runs :func:`repro.experiments.fig09_requests_per_minute.run`
  at paper scale; fig09's own 2 h warm-up is part of set-up.
- ``landscape-periodic`` and ``landscape-governed`` step one
  :class:`repro.AutoDBaaS` over eight databases with mixed workloads and
  VM plans, under the periodic baseline or under the TDE with the
  governor, surrogate screen and knob selection on; their first hour is
  warm-up.

A rep runs in one of three modes: ``plain`` (no recorder; fig09 only),
``counted`` (a :class:`~loopbench.recorder.WindowRecorder`, the timed
mode) and ``traced`` (counted, plus spans around each layer's entry
points, see :mod:`loopbench.ledger`).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from loopbench.calibrate import Calibrator
from loopbench.ledger import Ledger, Tracer, ledger, resolve_instances
from loopbench.recorder import WindowRecorder
from loopbench.stats import tail_percentile
from repro import AutoDBaaS
from repro.cloud.monitoring import MonitoringAgent
from repro.cloud.provisioner import Provisioner
from repro.core.director.config_director import ConfigDirector
from repro.core.director.safety import GovernorPolicy
from repro.core.tde.engine import ThrottlingDetectionEngine
from repro.dbsim.batch_engine import MemberBatch
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.knobs import postgres_catalog
from repro.experiments import fig09_requests_per_minute as fig09
from repro.experiments.common import offline_train
from repro.parallel.executor import FleetSession
from repro.parallel.stats import SessionStats
from repro.tuners.knob_selection import SelectionPolicy
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.repository import WorkloadRepository
from repro.tuners.surrogate import SurrogatePolicy
from repro.workloads import TPCCWorkload, TPCHWorkload, YCSBWorkload
from repro.workloads.adulterated import AdulteratedTPCCWorkload
from repro.workloads.generator import WorkloadGenerator

__all__ = ["Workload", "RepResult", "WORKLOADS", "SUB_RUNS", "digest", "sub_seed"]

WINDOW_S = 300.0
#: fig09 members; above 24 fig09 switches to its paper-scale settings.
FLEET_SIZE = 25
#: fig09's default warm-up, in windows (2 h of 5-minute windows).
FLEET_WARMUP_WINDOWS = 24
#: Two databases per workload family, each pair on two VM plans.
LANDSCAPE_SIZE = 8
#: Windows stepped before timing starts (1 h): a fresh landscape's first
#: windows tune every instance from its defaults on an almost empty
#: repository, and are timed as set-up, like fig09's warm-up.
LANDSCAPE_WARMUP_WINDOWS = 12
LANDSCAPE_PLANS = ("m4.large", "m4.xlarge", "t2.large", "t3.xlarge")
#: Scheduled downtime every 2 h: each instance restarts in window 23,
#: inside the timed windows of any sub-run that times at least 12.
DOWNTIME_PERIOD_S = 2 * 3600.0


def _config_values(config: KnobConfiguration) -> list[float]:
    return [config[name] for name in config.catalog.names()]


def digest(outputs: dict[str, Any]) -> str:
    """SHA-256 of the outputs' canonical JSON (floats at full precision)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class RepResult:
    """One rep: timings, operation counts and the deterministic outputs."""

    mode: str
    #: Workload start to the first timed window (build plus warm-up),
    #: host seconds less calibration time.
    setup_s: float
    #: Median calibration sample during set-up, ms.
    setup_cal_ms: float
    #: Host ms per timed fleet window, less calibration (empty in plain
    #: mode), and the calibration time around each window.
    window_ms: list[float]
    window_cal_ms: list[float]
    #: Sum of the timed windows, host seconds.
    timed_s: float
    member_windows: int
    requests: int
    #: Director answers served from the config repository instead.
    fallbacks: int
    crashed_windows: int
    applies: int
    applies_landed: int
    canary_rejections: int
    downtimes: int
    repo_rows_start: int
    repo_rows_end: int
    #: Deterministic outputs; :func:`digest` of these is the rep's digest.
    outputs: dict[str, Any]
    ledger: Ledger | None = None
    layer_metrics: dict[str, float] = field(default_factory=dict)
    spans: list[Any] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Operations that failed: crashed windows, fallback answers and
        applies that did not land for any reason but a canary verdict."""
        not_landed = self.applies - self.applies_landed - self.canary_rejections
        return self.crashed_windows + self.fallbacks + not_landed

    @property
    def attempted(self) -> int:
        return self.member_windows + self.requests + self.applies


# -- per-layer metrics --------------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    book: Ledger,
    spans: list[Any],
    results: list[tuple[int, Any]],
    start: float,
    end: float,
    rec: WindowRecorder,
    first_window: int,
    member_windows: int,
    windows: int,
    repo_rows_end: int,
    stats: SessionStats | None,
) -> dict[str, float]:
    """Every per-layer metric of one traced rep's timed interval."""
    calls, total, selfs = book.calls, book.total_s, book.self_s

    def counter(name: str) -> float:
        return rec.total(name, first_window)

    batches = throttles = 0
    for index, value in results:
        if not start <= spans[index].start < end:
            continue
        if spans[index].name == "workloads.batch":
            batches += len(value.sampled_queries) + len(value.family_examples)
        elif spans[index].name == "core.tde.inspect":
            throttles += len(value.throttles)
    recommend_ms = [
        _ms(s.duration)
        for s in spans
        if s.name == "tuners.recommend" and start <= s.start < end
    ]
    requests = counter("repro_tuning_requests_total")
    shortlists = counter("repro_surrogate_shortlists_total")
    selections = counter("repro_knobselect_reranks_total") + counter(
        "repro_knobselect_hits_total"
    )
    applies = counter("repro_applies_total")
    steady = stats.steps[first_window:] if stats is not None else []
    return {
        "workloads.batch_ms_per_mw": _per(
            _ms(total.get("workloads.batch", 0.0)), member_windows
        ),
        "workloads.sample_queries_per_mw": _per(batches, member_windows),
        "workloads.share": book.share("workloads"),
        "dbsim.step_window_ms_per_mw": _per(
            _ms(total.get("dbsim.step_window", 0.0)), member_windows
        ),
        "dbsim.run_ms_per_call": _per(
            _ms(total.get("dbsim.run", 0.0)), calls.get("dbsim.run", 0)
        ),
        "dbsim.share": book.share("dbsim"),
        "cloud.ingest_ms_per_mw": _per(
            _ms(total.get("cloud.ingest", 0.0)), member_windows
        ),
        "cloud.share": book.share("cloud"),
        "core.tde.inspect_ms_per_mw": _per(
            _ms(total.get("core.tde.inspect", 0.0)), member_windows
        ),
        "core.tde.throttles_per_mw": _per(throttles, member_windows),
        "core.tde.request_ratio": _per(
            requests, calls.get("core.tde.inspect", 0)
        ),
        "core.tde.share": book.share("core.tde"),
        "core.director.route_self_ms_per_request": _per(
            _ms(selfs.get("core.director.route", 0.0)),
            calls.get("core.director.route", 0),
        ),
        "core.director.governor_ms_per_window": _per(
            _ms(
                total.get("core.director.governor_bound", 0.0)
                + total.get("core.director.governor_watch", 0.0)
            ),
            windows,
        ),
        "core.director.fallbacks": counter("repro_fallbacks_served_total"),
        "core.director.reverts": counter("repro_reverts_total"),
        "core.director.canary_rejections": counter(
            "repro_canary_rejections_total"
        ),
        "core.director.share": book.share("core.director"),
        # Per-layer percentiles are reported down to one call; the
        # sample count rides along as tuners.recommend_calls.
        "tuners.recommend_ms_p50": (
            tail_percentile(recommend_ms, 0.5, 0) if recommend_ms else 0.0
        ),
        "tuners.recommend_ms_p90": (
            tail_percentile(recommend_ms, 0.9, 0) if recommend_ms else 0.0
        ),
        "tuners.recommend_calls": float(len(recommend_ms)),
        "tuners.repo_add_ms_per_call": _per(
            _ms(total.get("tuners.repo_add", 0.0)),
            calls.get("tuners.repo_add", 0),
        ),
        "tuners.repo_rows_end": float(repo_rows_end),
        "tuners.surrogate_hit_ratio": _per(
            counter("repro_surrogate_hits_total"), shortlists
        ),
        "tuners.knobselect_hit_ratio": _per(
            counter("repro_knobselect_hits_total"), selections
        ),
        "tuners.share": book.share("tuners"),
        "core.apply.dfa_self_ms_per_call": _per(
            _ms(selfs.get("core.apply.dfa", 0.0)), calls.get("core.apply.dfa", 0)
        ),
        "core.apply.landed_ratio": _per(
            counter("repro_applies_total:applied"), applies
        ),
        "core.apply.reconcile_ms_per_tick": _per(
            _ms(total.get("core.apply.reconcile", 0.0)),
            calls.get("core.apply.reconcile", 0),
        ),
        "core.apply.downtimes": counter("repro_downtimes_total"),
        "core.apply.share": book.share("core.apply"),
        "parallel.command_bytes_per_window": _per(
            sum(s.command_bytes for s in steady), len(steady)
        ),
        "parallel.snapshot_bytes": float(stats.snapshot_bytes if stats else 0),
        "parallel.serialize_ms_per_window": _per(
            _ms(sum(s.serialize_s for s in steady)), len(steady)
        ),
        "parallel.merge_ms_per_window": _per(
            _ms(sum(s.merge_s for s in steady)), len(steady)
        ),
        "parallel.share": book.share("parallel"),
        "unattributed.share": book.unattributed_s / book.wall_s,
    }


# -- fleet-tde ----------------------------------------------------------------


class _StepObserver:
    """Reads throughput and configs off ``MemberBatch.step_window``.

    At ``workers=1`` fig09 has one in-process shard, so each call is one
    fleet window with every member in order. The observer only reads the
    results it passes through, in every mode (plain runs included), so
    it is part of all timings alike.
    """

    def __init__(self, first_timed: int, tracer: Tracer) -> None:
        self.first_timed = first_timed
        self.calls = 0
        self.tps_sum = 0.0
        self.tps_count = 0
        self.last: list[Any] = []
        step_window = MemberBatch.step_window

        def observed(engine: MemberBatch, batches: Any) -> Any:
            results = step_window(engine, batches)
            if self.calls >= self.first_timed:
                self.tps_sum += sum(r.throughput for r in results)
                self.tps_count += len(results)
            self.calls += 1
            self.last = results
            return results

        tracer.replace(MemberBatch, "step_window", observed)


def _trace_fleet(tracer: Tracer, cal: Calibrator) -> None:
    """Class-level spans: fig09 runs in-process at ``workers=1``."""
    tracer.patch(cal, "sample", "loopbench.calibrate")
    members: dict[int, str] = {}
    build_member = fig09.build_member

    def registering(spec: Any, index: int) -> Any:
        member = build_member(spec, index)
        members[id(member.workload)] = member.instance_id
        return member

    tracer.replace(fig09, "build_member", registering)
    tracer.patch(
        WorkloadGenerator,
        "batch",
        "workloads.batch",
        instance=lambda gen, *a, **k: members.get(id(gen), ""),
        keep_result=True,
    )
    tracer.patch(MemberBatch, "step_window", "dbsim.step_window")
    tracer.patch(
        MonitoringAgent,
        "ingest",
        "cloud.ingest",
        instance=lambda agent, *a, **k: agent.instance_id,
    )
    tracer.patch(
        ThrottlingDetectionEngine,
        "inspect",
        "core.tde.inspect",
        instance=lambda tde, *a, **k: tde.instance_id,
        keep_result=True,
    )
    tracer.patch(
        ConfigDirector,
        "handle_tuning_request",
        "core.director.route",
        instance=lambda director, request: request.instance_id,
    )
    tracer.patch(
        OtterTuneTuner,
        "recommend",
        "tuners.recommend",
        instance=lambda tuner, request: request.instance_id,
    )
    tracer.patch(WorkloadRepository, "add", "tuners.repo_add", instance=None)
    tracer.patch(FleetSession, "step", "parallel.session_step")


def run_fleet(seed: int, windows: int, mode: str) -> RepResult:
    """One fig09 rep: warm-up in set-up, then *windows* timed windows."""
    cal = Calibrator()
    # Looked up per call, so a traced rep's wrapper on ``cal.sample`` runs.
    rec = WindowRecorder(on_advance=lambda: cal.sample()) if mode != "plain" else None
    stats = SessionStats() if mode != "plain" else None
    tracer = Tracer(lambda: rec.window if rec is not None else -1)
    observer = _StepObserver(FLEET_WARMUP_WINDOWS, tracer)
    # fig09 bootstraps its own repository; keep a handle on it to read
    # the row counts at both ends of the rep.
    bootstrap: list[tuple[WorkloadRepository, int]] = []

    def kept_offline_train(*args: Any, **kwargs: Any) -> WorkloadRepository:
        repository = offline_train(*args, **kwargs)
        bootstrap.append((repository, repository.total_samples()))
        return repository

    tracer.replace(fig09, "offline_train", kept_offline_train)
    if mode == "traced":
        _trace_fleet(tracer, cal)
    try:
        begin = time.perf_counter()
        run = fig09.run(
            fleet_size=FLEET_SIZE,
            # fig09 truncates (hours + warm-up) / window to whole windows;
            # a millionth of a window keeps float rounding from dropping
            # the last one.
            hours=(windows + 1e-6) * WINDOW_S / 3600.0,
            window_s=WINDOW_S,
            warmup_hours=FLEET_WARMUP_WINDOWS * WINDOW_S / 3600.0,
            seed=seed,
            recorder=rec,
            workers=1,
            stats=stats,
        )
        end = time.perf_counter()
    finally:
        tracer.restore()
    ((repository, rows_start),) = bootstrap
    outputs: dict[str, Any] = {
        "fig09_series": [
            [p.hour, p.tde_rpm, p.periodic_5min_rpm, p.periodic_10min_rpm]
            for p in run.points
        ],
        "tde_total": run.tde_total,
        "periodic_totals": [run.periodic_5min_total, run.periodic_10min_total],
        "final_configs": [_config_values(r.config) for r in observer.last],
        "db_tps_mean": observer.tps_sum / observer.tps_count,
        "repo_rows_end": repository.total_samples(),
    }
    first = FLEET_WARMUP_WINDOWS
    result = RepResult(
        mode=mode,
        setup_s=0.0,
        setup_cal_ms=0.0,
        window_ms=[],
        window_cal_ms=[],
        timed_s=end - begin,
        member_windows=FLEET_SIZE * windows,
        requests=run.tde_total,
        fallbacks=0,
        crashed_windows=0,
        # fig09 applies fitted configs inside its shards, out of sight.
        applies=0,
        applies_landed=0,
        canary_rejections=0,
        downtimes=0,
        repo_rows_start=rows_start,
        repo_rows_end=repository.total_samples(),
        outputs=outputs,
    )
    if rec is None:
        return result
    if len(rec.stamps) != first + windows:
        raise AssertionError(
            f"fig09 stepped {len(rec.stamps)} windows, expected {first + windows}"
        )
    requests = int(rec.total("repro_tuning_requests_total", first))
    if requests != run.tde_total:
        raise AssertionError(
            f"recorder counted {requests} timed requests, fig09 {run.tde_total}"
        )
    outputs["window_requests"] = rec.per_window("repro_tuning_requests_total")
    _time_windows(result, rec, cal, begin, end, first)
    result.fallbacks = int(rec.total("repro_fallbacks_served_total", first))
    if mode == "traced":
        _book(result, tracer, rec.stamps[first][1], end, rec, first, windows, stats)
    return result


def _time_windows(
    result: RepResult,
    rec: WindowRecorder,
    cal: Calibrator,
    begin: float,
    end: float,
    first: int,
) -> None:
    """Set-up and per-window host times from the recorder's stamps.

    Window *w* runs from ``rec.stamps[w]`` to the next stamp (the last
    one to *end*). Calibration sample *w* is taken right after stamp *w*,
    inside the window, and its cost is taken out again; one more sample
    follows the last window, so each window gets the mean of the samples
    on either side.
    """
    cal.sample()
    starts = [host for _, host in rec.stamps] + [end]
    result.setup_s = starts[first] - begin - sum(cal.spent[:first])
    result.setup_cal_ms = statistics.median(cal.samples[: max(first, 1)])
    timed = range(first, len(rec.stamps))
    result.window_ms = [
        _ms(starts[w + 1] - starts[w] - cal.spent[w]) for w in timed
    ]
    result.window_cal_ms = [
        (cal.samples[w] + cal.samples[w + 1]) / 2.0 for w in timed
    ]
    result.timed_s = sum(result.window_ms) / 1000.0


def _book(
    result: RepResult,
    tracer: Tracer,
    start: float,
    end: float,
    rec: WindowRecorder,
    first_window: int,
    windows: int,
    stats: SessionStats | None,
) -> None:
    resolve_instances(tracer.spans)
    result.ledger = ledger(tracer.spans, start, end)
    result.layer_metrics = layer_metrics(
        result.ledger,
        tracer.spans,
        tracer.results,
        start,
        end,
        rec,
        first_window,
        result.member_windows,
        windows,
        result.repo_rows_end,
        stats,
    )
    result.spans = tracer.spans


# -- landscapes ---------------------------------------------------------------


def _landscape_workload(kind: int, seed: int) -> WorkloadGenerator:
    if kind == 0:
        return TPCCWorkload(seed=seed)
    if kind == 1:
        return AdulteratedTPCCWorkload(adulteration_p=0.5, seed=seed)
    if kind == 2:
        return TPCHWorkload(seed=seed)
    return YCSBWorkload(seed=seed)


def build_landscape(
    seed: int, policy: str, recorder: WindowRecorder
) -> tuple[AutoDBaaS, OtterTuneTuner]:
    """A dozen databases: TPC-C, adulterated TPC-C, TPC-H and YCSB tenants
    spread over four VM plans, one OtterTune tuner, one facade."""
    base = 1000 * seed
    catalog = postgres_catalog()
    repository = offline_train(
        catalog,
        [TPCCWorkload(rps=6000.0, data_size_gb=30.0, seed=base + 90)],
        n_configs=8,
        seed=base + 91,
    )
    tuner = OtterTuneTuner(
        catalog,
        repository,
        n_candidates=150,
        memory_limit_mb=None,  # the facade fits each apply to its instance
        seed=base + 92,
    )
    governed = policy == "tde"
    service = AutoDBaaS(
        [tuner],
        repository,
        window_s=WINDOW_S,
        downtime_period_s=DOWNTIME_PERIOD_S,
        seed=base,
        recorder=recorder,
        governor=GovernorPolicy() if governed else None,
        surrogate=SurrogatePolicy() if governed else None,
        selection=SelectionPolicy() if governed else None,
    )
    provisioner = Provisioner(seed=base + 1)
    for i in range(LANDSCAPE_SIZE):
        workload = _landscape_workload(i % 4, base + 10 + i)
        deployment = provisioner.provision(
            plan=LANDSCAPE_PLANS[(i + i // 4) % len(LANDSCAPE_PLANS)],
            flavor="postgres",
            data_size_gb=workload.data_size_gb,
            replicas=1,
        )
        service.attach(
            deployment, workload, policy=policy, periodic_interval_s=WINDOW_S
        )
    return service, tuner


def _trace_landscape(
    tracer: Tracer, service: AutoDBaaS, tuner: OtterTuneTuner
) -> None:
    """Instance-level spans on the objects this landscape built."""
    for managed in service.instances.values():
        iid = managed.instance_id
        replicated = managed.deployment.service
        tracer.patch(
            managed.workload, "batch", "workloads.batch",
            instance=iid, keep_result=True,
        )
        tracer.patch(replicated, "run", "dbsim.run", instance=iid)
        if replicated.slaves:
            # The governor's canary replays the window on the first slave.
            tracer.patch(
                replicated.slaves[0], "run", "dbsim.canary_run", instance=iid
            )
        tracer.patch(managed.monitoring, "ingest", "cloud.ingest", instance=iid)
        tracer.patch(
            managed.tde, "inspect", "core.tde.inspect",
            instance=iid, keep_result=True,
        )
    tracer.patch(
        service.director,
        "handle_tuning_request",
        "core.director.route",
        instance=lambda request: request.instance_id,
    )
    if service.governor is not None:
        tracer.patch(
            service.governor,
            "bound",
            "core.director.governor_bound",
            instance=lambda instance_id, *a: instance_id,
        )
        tracer.patch(
            service.governor,
            "observe_window",
            "core.director.governor_watch",
            instance=lambda instance_id, *a: instance_id,
        )
    tracer.patch(
        tuner,
        "recommend",
        "tuners.recommend",
        instance=lambda request: request.instance_id,
    )
    tracer.patch(service.repository, "add", "tuners.repo_add", instance=None)
    tracer.patch(
        service.dfa,
        "apply",
        "core.apply.dfa",
        instance=lambda *a, instance_id="", **k: instance_id,
    )
    tracer.patch(
        service.reconciler,
        "tick",
        "core.apply.reconcile",
        instance=lambda instance_id, *a: instance_id,
    )


def run_landscape(policy: str, seed: int, windows: int, mode: str) -> RepResult:
    """One landscape: build and warm up (set-up), then *windows* timed windows."""
    cal = Calibrator()
    rec = WindowRecorder(on_advance=lambda: cal.sample())
    begin = time.perf_counter()
    service, tuner = build_landscape(seed, policy, rec)
    rows_start = service.repository.total_samples()
    tracer = Tracer(lambda: rec.window)
    window_requests: list[int] = []
    tps_sum = 0.0
    tps_count = crashed = 0
    first = LANDSCAPE_WARMUP_WINDOWS
    try:
        if mode == "traced":
            tracer.patch(cal, "sample", "loopbench.calibrate")
            _trace_landscape(tracer, service, tuner)
        for w in range(first + windows):
            outcomes = service.step()
            window_requests.append(sum(o.tuning_requested for o in outcomes))
            if w < first:
                continue
            for outcome in outcomes:
                if outcome.result is None:
                    crashed += 1
                else:
                    tps_sum += outcome.result.throughput
                    tps_count += 1
        end = time.perf_counter()
    finally:
        tracer.restore()
    requests = sum(window_requests[first:])
    if policy == "periodic" and sum(window_requests) != LANDSCAPE_SIZE * len(
        window_requests
    ):
        raise AssertionError(
            f"periodic landscape issued {sum(window_requests)} requests over "
            f"{LANDSCAPE_SIZE * len(window_requests)} member-windows"
        )
    downtimes = int(rec.total("repro_downtimes_total", first))
    if downtimes < LANDSCAPE_SIZE:
        raise AssertionError(
            f"{downtimes} timed scheduled downtimes for {LANDSCAPE_SIZE} instances"
        )
    outputs = {
        "window_requests": window_requests,
        "final_configs": {
            iid: _config_values(m.deployment.service.master.config)
            for iid, m in service.instances.items()
        },
        "throttles": service.throttle_counts(),
        "db_tps_mean": tps_sum / tps_count,
        "repo_rows_end": service.repository.total_samples(),
    }
    result = RepResult(
        mode=mode,
        setup_s=0.0,
        setup_cal_ms=0.0,
        window_ms=[],
        window_cal_ms=[],
        timed_s=0.0,
        member_windows=LANDSCAPE_SIZE * windows,
        requests=requests,
        fallbacks=int(rec.total("repro_fallbacks_served_total", first)),
        crashed_windows=crashed,
        applies=int(rec.total("repro_applies_total", first)),
        applies_landed=int(rec.total("repro_applies_total:applied", first)),
        canary_rejections=int(rec.total("repro_canary_rejections_total", first)),
        downtimes=downtimes,
        repo_rows_start=rows_start,
        repo_rows_end=service.repository.total_samples(),
        outputs=outputs,
    )
    _time_windows(result, rec, cal, begin, end, first)
    if mode == "traced":
        _book(result, tracer, rec.stamps[first][1], end, rec, first, windows, None)
    return result


# -- registry -----------------------------------------------------------------


#: Sub-runs per untraced run, each set up and stepped from its own
#: :func:`sub_seed`; their timed windows are pooled.
SUB_RUNS = 4


def sub_seed(seed: int, k: int) -> int:
    """Seed of sub-run *k* of a run seeded *seed* (disjoint per run)."""
    return 1000 * seed + 100 * k


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    members: int
    #: Modes of the reps a traced run makes, all on sub-run 0's seed.
    traced_modes: tuple[str, ...]
    #: Timed windows per sub-run for each second of ``--seconds``.
    windows_per_s: float
    run: Callable[[int, int, str], RepResult]
    provenance: dict[str, Any]


_LANDSCAPE_SAMPLE_SIZES = {
    "tpcc": 200,
    "tpcc_adulterated_50": 200,
    "tpch": 100,
    "ycsb": 200,
}


def _landscape_provenance(policy: str, governed: bool) -> dict[str, Any]:
    return {
        "entry_point": "repro.AutoDBaaS.step",
        "fleet_size": LANDSCAPE_SIZE,
        "policy": policy,
        "periodic_interval_s": WINDOW_S if policy == "periodic" else None,
        "downtime_period_s": DOWNTIME_PERIOD_S,
        "flags": {"governor": governed, "surrogate": governed, "knob_select": governed},
        "sample_size": _LANDSCAPE_SAMPLE_SIZES,
        "plans": LANDSCAPE_PLANS,
    }


WORKLOADS: dict[str, Workload] = {
    "fleet-tde": Workload(
        name="fleet-tde",
        why=(
            "fig09 at paper scale: columnar MemberBatch, delta-only executor "
            "wire and a TDE-gated director; the only workload on the sharded path"
        ),
        members=FLEET_SIZE,
        traced_modes=("plain", "counted", "traced"),
        windows_per_s=5.0,
        run=run_fleet,
        provenance={
            "entry_point": "repro.experiments.fig09_requests_per_minute.run",
            "fleet_size": FLEET_SIZE,
            "policy": "tde",
            "flags": {"governor": False, "surrogate": False, "knob_select": False},
            "sample_size": 64,
            "warmup_windows": FLEET_WARMUP_WINDOWS,
        },
    ),
    "landscape-periodic": Workload(
        name="landscape-periodic",
        why=(
            "periodic baseline: every member-window uploads a sample, requests "
            "a recommendation and applies it; governor, screen, selection off"
        ),
        members=LANDSCAPE_SIZE,
        traced_modes=("counted", "traced"),
        windows_per_s=4.0,
        run=lambda seed, windows, mode: run_landscape(
            "periodic", seed, windows, mode
        ),
        provenance=_landscape_provenance("periodic", False),
    ),
    "landscape-governed": Workload(
        name="landscape-governed",
        why=(
            "TDE-gated and governed: requests only on throttles, through the "
            "surrogate screen, knob selection, governor bound and canary"
        ),
        members=LANDSCAPE_SIZE,
        traced_modes=("counted", "traced"),
        windows_per_s=4.0,
        run=lambda seed, windows, mode: run_landscape("tde", seed, windows, mode),
        provenance=_landscape_provenance("tde", True),
    ),
}
