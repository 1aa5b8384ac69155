"""Every cell of the feature bundle: determinism, arming and bounds.

The governor, the surrogate screen and knob selection are each opt-in,
and each is pinned on its own elsewhere. This suite runs all 2³ cells of
:class:`~repro.core.features.Features` through one small landscape — a
BO tuner and a hybrid tuner, each behind a pass-through
:class:`~repro.faults.injectors.FaultyTuner` shim — and checks per cell:

1. two runs are byte-identical (trace JSONL plus per-window outcomes);
2. every tuner behind the shims (both hybrid members included) holds a
   surrogate screen / knob selector exactly when that feature is on, and
   the ``repro_surrogate_*`` / ``repro_knobselect_*`` counters are
   non-zero exactly in the cells that arm them;
3. with the governor on, every window that lands a tuning apply without
   a revert or downtime moves the master's configuration by at most the
   policy's step budget (L-inf, normalised knob space).

It also checks worker-count invariance per cell: the quick chaos report
for all eight, and a small fig09 window for the four without a governor
(fig09 drives the director without the service facade).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.cloud.provisioner import Provisioner
from repro.core.director.safety import GovernorPolicy
from repro.core.features import Features
from repro.core.service import AutoDBaaS
from repro.dbsim.knobs import postgres_catalog
from repro.experiments import chaos_recovery
from repro.experiments import fig09_requests_per_minute as fig09
from repro.experiments.common import offline_train
from repro.faults.injectors import FaultInjector, FaultyTuner
from repro.faults.plan import FaultPlan
from repro.obs.export import to_jsonl
from repro.obs.trace import TraceRecorder
from repro.tuners.base import Tuner, config_to_vector
from repro.tuners.hybrid import HybridTuner
from repro.tuners.knob_selection import SelectionPolicy
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.surrogate import SurrogatePolicy
from repro.workloads.tpcc import TPCCWorkload

WINDOWS = 10
WINDOW_S = 300.0

CELLS = [
    Features(
        governor=GovernorPolicy() if governor else None,
        surrogate=SurrogatePolicy() if surrogate else None,
        selection=SelectionPolicy() if selection else None,
    )
    for governor, surrogate, selection in itertools.product(
        (False, True), repeat=3
    )
]


def _cell_id(features: Features) -> str:
    armed = [
        name
        for name, policy in (
            ("governor", features.governor),
            ("surrogate", features.surrogate),
            ("selection", features.selection),
        )
        if policy is not None
    ]
    return "+".join(armed) or "none"


def _landscape(features: Features, recorder: TraceRecorder) -> AutoDBaaS:
    """Two TPC-C databases served by a BO and a hybrid tuner."""
    catalog = postgres_catalog()
    repository = offline_train(
        catalog,
        [TPCCWorkload(rps=12_000.0, data_size_gb=30.0, seed=90)],
        n_configs=20,
        seed=91,
    )
    injector = FaultInjector(FaultPlan(events=()), enabled=False)
    tuners: list[Tuner] = [
        FaultyTuner(
            OtterTuneTuner(catalog, repository, n_candidates=100, seed=40),
            injector,
            "tuner-00",
        ),
        FaultyTuner(
            HybridTuner(catalog, repository, bo_every=2, seed=41),
            injector,
            "tuner-01",
        ),
    ]
    service = AutoDBaaS(
        tuners,
        repository,
        window_s=WINDOW_S,
        recorder=recorder,
        governor=features.governor,
        surrogate=features.surrogate,
        selection=features.selection,
    )
    provisioner = Provisioner(seed=5)
    for i in range(2):
        deployment = provisioner.provision(
            plan="m4.xlarge", flavor="postgres", data_size_gb=30.0 + 2.0 * i
        )
        workload = TPCCWorkload(
            rps=6000.0,
            data_size_gb=deployment.service.master.data_size_gb,
            seed=10 + i,
        )
        service.attach(deployment, workload, policy="tde")
    return service


def _run(features: Features) -> tuple[AutoDBaaS, TraceRecorder, str, list[float]]:
    """Run one cell; return the landscape, its recorder, a rendering of
    the run and the largest governed move per landed apply."""
    recorder = TraceRecorder()
    service = _landscape(features, recorder)
    lines: list[str] = []
    moves: list[float] = []
    for _ in range(WINDOWS):
        before = {
            iid: config_to_vector(m.deployment.service.master.config)
            for iid, m in service.instances.items()
        }
        for outcome in service.step():
            master = service.instances[outcome.instance_id].deployment.service.master
            after = config_to_vector(master.config)
            report = outcome.apply_report
            landed = report is not None and report.applied
            if landed and not outcome.reverted and not outcome.downtime_taken:
                moves.append(
                    float(np.max(np.abs(after - before[outcome.instance_id])))
                )
            throughput = (
                outcome.result.throughput if outcome.result is not None else None
            )
            lines.append(
                f"{outcome.instance_id} tps={throughput!r} "
                f"requested={outcome.tuning_requested} landed={landed} "
                f"reverted={outcome.reverted} config={after.tolist()!r}"
            )
    rendering = to_jsonl(recorder, {"cell": _cell_id(features)}) + "\n".join(lines)
    return service, recorder, rendering, moves


def _members(shim: Tuner) -> list[Tuner]:
    """The concrete tuners behind one shim (both members of a hybrid)."""
    assert isinstance(shim, FaultyTuner)
    inner = shim.inner
    return [inner.bo, inner.rl] if isinstance(inner, HybridTuner) else [inner]


def _counter_total(recorder: TraceRecorder, prefix: str) -> float:
    return sum(
        sample.value
        for sample in recorder.metrics.samples()
        if sample.name.startswith(prefix)
    )


@pytest.fixture(scope="module", params=CELLS, ids=_cell_id)
def cell(request):
    features = request.param
    first = _run(features)
    second = _run(features)
    return features, first, second


class TestEveryCell:
    def test_two_runs_byte_identical(self, cell):
        _, (_, _, first, _), (_, _, second, _) = cell
        assert first == second

    def test_tiers_armed_exactly_when_on(self, cell):
        features, (service, recorder, _, _), _ = cell
        surrogate_on = features.surrogate is not None
        selection_on = features.selection is not None
        members = [
            member
            for instance in service.balancer.instances
            for member in _members(instance.tuner)
        ]
        assert {type(m).__name__ for m in members} == {
            "OtterTuneTuner",
            "CDBTuneTuner",
        }
        for member in members:
            assert (member.knob_selector is not None) == selection_on
            if isinstance(member, OtterTuneTuner):
                assert (member.surrogate_screen is not None) == surrogate_on
        assert (_counter_total(recorder, "repro_surrogate_") > 0) == surrogate_on
        assert (_counter_total(recorder, "repro_knobselect_") > 0) == selection_on

    def test_governed_moves_within_step_budget(self, cell):
        features, (_, _, _, moves), _ = cell
        if features.governor is None:
            pytest.skip("governor off in this cell")
        assert moves, "no tuning apply landed; the bound went unexercised"
        assert max(moves) <= features.governor.step_budget + 1e-9


@pytest.mark.parametrize("features", CELLS, ids=_cell_id)
def test_chaos_report_worker_invariant(features):
    reports = [
        chaos_recovery.run(quick=True, workers=workers, features=features).render()
        for workers in (1, 2)
    ]
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "features", [f for f in CELLS if f.governor is None], ids=_cell_id
)
def test_fig09_worker_invariant(features):
    runs = [
        fig09.run(fleet_size=4, hours=1, workers=workers, features=features)
        for workers in (1, 2)
    ]
    assert runs[0] == runs[1]


def test_fig09_rejects_a_governor():
    with pytest.raises(ValueError, match="governor"):
        fig09.run(fleet_size=4, hours=1, features=Features(governor=GovernorPolicy()))
