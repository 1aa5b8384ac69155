"""R002 no-wallclock-in-sim: simulation code must not read real time.

Everything under ``dbsim/``, ``core/``, ``tuners/`` and ``workloads/``
advances a *simulated* clock (seconds passed around explicitly, e.g.
``SimulatedDatabase.clock_s``). A single ``time.time()`` in one of those
paths makes results depend on the host's wall clock and silently breaks
byte-identical seeded reruns. Benchmark harnesses measure real elapsed
time by design and are exempt (files with "bench" in the name, and
everything outside the simulation paths).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePosixPath

from repro.analysis.findings import ParsedModule

__all__ = ["in_simulation_path", "no_wallclock_in_sim"]

_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


def in_simulation_path(relpath: PurePosixPath) -> bool:
    """Whether *relpath* is simulation-facing, non-benchmark code."""
    simulated = {"dbsim", "core", "tuners", "workloads"} & set(relpath.parts[:-1])
    return bool(simulated) and "bench" not in relpath.parts[-1]


def no_wallclock_in_sim(module: ParsedModule) -> Iterator[tuple[ast.Call, str]]:
    """R002: wall-clock reads are banned in simulation paths."""
    if not in_simulation_path(module.relpath):
        return
    for node, qualified in module.calls():
        if qualified in _WALLCLOCK_CALLS:
            yield node, (
                f"`{qualified}()` reads the wall clock inside a "
                "simulation path; thread simulated seconds explicitly"
            )
