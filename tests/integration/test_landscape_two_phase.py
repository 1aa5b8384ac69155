"""The two-phase landscape window against the per-instance loop.

:meth:`~repro.core.service.AutoDBaaS.step` heals and steps every master
in one engine call, then serves the instances in order;
``tests/reference.py::step_landscape_serial`` steps each master just
before serving its instance. Twin landscapes, one driven by each, must
agree after every window on each :class:`StepOutcome` field, and at the
end on the whole trace (spans, events and metrics) and on the pickled
state of every node. The cells cover the three policies, restart-mode
apply, the governor with the surrogate screen and knob selection armed,
an ``apply_crash`` fault that leaves a master down at a window start
(so the heal before the step runs), and scheduled downtime.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.cloud.provisioner import Provisioner
from repro.core.apply.adapters import adapter_for
from repro.core.apply.dfa import DataFederationAgent
from repro.core.apply.reconciler import Reconciler
from repro.core.director.safety import GovernorPolicy
from repro.core.service import AutoDBaaS
from repro.dbsim.knobs import postgres_catalog
from repro.experiments.common import offline_train
from repro.faults.injectors import FaultInjector, FaultyAdapter
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.obs.export import to_jsonl
from repro.obs.trace import TraceRecorder
from repro.tuners.knob_selection import SelectionPolicy
from repro.tuners.ottertune import OtterTuneTuner
from repro.tuners.surrogate import SurrogatePolicy
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.ycsb import YCSBWorkload
from tests.reference import step_landscape_serial

WINDOWS = 30
WINDOW_S = 300.0
#: The instance whose every apply crashes in the ``apply-crash`` cell.
CRASHED = "svc-0000"

CELLS = {
    "policies": {"policies": ("tde", "periodic", "monitor")},
    "restart": {"policies": ("tde", "periodic"), "apply_mode": "restart"},
    "features": {"policies": ("tde", "periodic"), "features": True},
    "apply-crash": {"policies": ("periodic", "tde"), "crash": True},
    "downtime": {"policies": ("tde", "periodic"), "downtime_period_s": 4 * WINDOW_S},
}


def _landscape(cell: dict, recorder: TraceRecorder) -> tuple[AutoDBaaS, FaultInjector]:
    catalog = postgres_catalog()
    repository = offline_train(
        catalog,
        [TPCCWorkload(rps=12_000.0, data_size_gb=30.0, seed=90)],
        n_configs=20,
        seed=91,
    )
    armed = cell.get("features", False)
    # Every apply on CRASHED's nodes crashes for most of the run, so a
    # reconciler restore leaves its master down at the window's end.
    injector = FaultInjector(
        FaultPlan(
            events=(FaultEvent(FaultKind.APPLY_CRASH, CRASHED, 0.0, 20 * WINDOW_S),)
        ),
        enabled=cell.get("crash", False),
    )
    adapter = FaultyAdapter(adapter_for("postgres"), injector, service_id="none")
    service = AutoDBaaS(
        [
            OtterTuneTuner(catalog, repository, n_candidates=100, seed=40 + i)
            for i in range(2)
        ],
        repository,
        window_s=WINDOW_S,
        downtime_period_s=cell.get("downtime_period_s", 86_400.0),
        seed=3,
        dfa=DataFederationAgent(adapter=adapter),
        recorder=recorder,
        governor=GovernorPolicy() if armed else None,
        surrogate=SurrogatePolicy() if armed else None,
        selection=SelectionPolicy() if armed else None,
    )
    service.reconciler = Reconciler(
        service.orchestrator,
        watcher_timeout_s=WINDOW_S,
        adapter=adapter,
        recorder=recorder,
        incident_log=service.governor,
    )
    provisioner = Provisioner(seed=5)
    for i, policy in enumerate(cell["policies"]):
        deployment = provisioner.provision(
            plan="m4.xlarge", flavor="postgres", data_size_gb=30.0 + 2.0 * i
        )
        size = deployment.service.master.data_size_gb
        workload = (
            TPCCWorkload(rps=6000.0, data_size_gb=size, seed=10 + i)
            if i % 2 == 0
            else YCSBWorkload(rps=6000.0, data_size_gb=size, seed=10 + i)
        )
        service.attach(
            deployment,
            workload,
            policy=policy,
            periodic_interval_s=2 * WINDOW_S,
            apply_mode=cell.get("apply_mode", "split"),
        )
        adapter.register_service(deployment.instance_id, deployment.service.nodes)
    return service, injector


def _nodes(service: AutoDBaaS) -> list[bytes]:
    return [
        pickle.dumps(node)
        for managed in service.instances.values()
        for node in managed.deployment.service.nodes
    ]


@pytest.mark.parametrize("cell", list(CELLS.values()), ids=list(CELLS))
def test_two_phase_step_matches_serial_loop(cell):
    twins = []
    for _ in range(2):
        recorder = TraceRecorder()
        twins.append((*_landscape(cell, recorder), recorder))
    (batched, batched_faults, batched_trace), (serial, serial_faults, serial_trace) = twins

    down_at_start = 0
    requests = 0
    downtimes = 0
    for _ in range(WINDOWS):
        down_at_start += sum(
            m.deployment.service.master.crashed for m in batched.instances.values()
        )
        batched_faults.advance(batched.clock_s)
        serial_faults.advance(serial.clock_s)
        got = batched.step()
        want = step_landscape_serial(serial)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for field in dataclasses.fields(a):
                assert pickle.dumps(getattr(a, field.name)) == pickle.dumps(
                    getattr(b, field.name)
                ), field.name
            requests += a.tuning_requested
            downtimes += a.downtime_taken

    assert to_jsonl(batched_trace) == to_jsonl(serial_trace)
    assert _nodes(batched) == _nodes(serial)
    # Each cell must reach the path it exists for.
    assert requests > 0
    if cell.get("crash"):
        assert down_at_start > 0
    if "downtime_period_s" in cell:
        assert downtimes > 0
