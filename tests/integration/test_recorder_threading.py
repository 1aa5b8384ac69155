"""Every recorder-aware component in a traced landscape holds its recorder.

Core components take a ``recorder`` parameter and fall back to the
no-op ``NULL_RECORDER`` when none is passed, so a constructor that
forgets to thread it severs the trace tree without any error. Golden
traces catch that only on paths a golden run reaches. These tests build
a traced landscape, walk every ``repro`` object reachable from the
service, and require each one that stores a ``recorder`` to hold the
landscape's own.
"""

import numpy as np

from repro import AutoDBaaS
from repro.cloud import Provisioner
from repro.common.recording import Recorder
from repro.core.director.safety import GovernorPolicy
from repro.core.features import Features
from repro.dbsim import postgres_catalog
from repro.experiments import chaos_recovery
from repro.faults.injectors import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.trace import TraceRecorder
from repro.tuners import OtterTuneTuner, WorkloadRepository
from repro.tuners.knob_selection import SelectionPolicy
from repro.tuners.surrogate import SurrogatePolicy
from repro.workloads import TPCCWorkload

#: The classes in ``repro.core`` that take a ``recorder``; the traced
#: facade's walk must meet each of them.
CORE_AWARE = {
    "AutoDBaaS",
    "ConfigDirector",
    "DataFederationAgent",
    "Reconciler",
    "SafetyGovernor",
    "ServiceOrchestrator",
    "ThrottlingDetectionEngine",
}


def recorder_holders(root):
    """``(object, recorder)`` for every reachable ``repro`` object storing one."""
    holders = []
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (Recorder, np.ndarray, np.generic)):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro.") and hasattr(obj, "__dict__"):
            attributes = vars(obj)
            if "recorder" in attributes:
                holders.append((obj, attributes["recorder"]))
            stack.extend(attributes.values())
    return holders


def _assert_threaded(service, recorder):
    holders = recorder_holders(service)
    strays = [type(obj).__name__ for obj, held in holders if held is not recorder]
    assert strays == [], f"built without the landscape's recorder: {strays}"
    return {type(obj).__name__ for obj, _ in holders}


def test_traced_facade_threads_its_recorder():
    recorder = TraceRecorder()
    repo = WorkloadRepository()
    tuner = OtterTuneTuner(postgres_catalog(), repo, memory_limit_mb=6553.6, seed=1)
    service = AutoDBaaS(
        [tuner],
        repo,
        window_s=60.0,
        recorder=recorder,
        governor=GovernorPolicy(),
        surrogate=SurrogatePolicy(),
        selection=SelectionPolicy(),
    )
    deployment = Provisioner(seed=2).provision(plan="m4.large", data_size_gb=20.0)
    service.attach(deployment, TPCCWorkload(rps=100.0, seed=3))
    service.step()
    assert CORE_AWARE <= _assert_threaded(service, recorder)


def test_chaos_landscape_threads_its_recorder():
    recorder = TraceRecorder()
    landscape = chaos_recovery._build_landscape(
        7,
        2,
        300.0,
        FaultInjector(FaultPlan(())),
        4,
        recorder=recorder,
        features=Features(governor=GovernorPolicy()),
    )
    names = _assert_threaded(landscape.service, recorder)
    assert "FaultInjector" in names

