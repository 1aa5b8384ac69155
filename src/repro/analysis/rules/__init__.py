"""The lint rules, R001–R003, in the order they run.

Each rule maps one :class:`~repro.analysis.findings.ParsedModule` to
the ``(node, message)`` pairs it flags; the engine turns each pair into
a finding under the rule's id.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator

from repro.analysis.findings import ParsedModule
from repro.analysis.rules.rng import no_global_rng, rng_must_thread
from repro.analysis.rules.wallclock import no_wallclock_in_sim

__all__ = ["RULES", "no_global_rng", "no_wallclock_in_sim", "rng_must_thread"]

Check = Callable[[ParsedModule], Iterator[tuple[ast.Call, str]]]

RULES: tuple[tuple[str, Check], ...] = (
    ("R001", no_global_rng),
    ("R002", no_wallclock_in_sim),
    ("R003", rng_must_thread),
)
