"""``repro lint``: AST-based invariant checking for the reproduction.

The headline guarantees of this repository — byte-identical seeded
benches, correct TDE throttle decisions — rest on conventions that are
easy to break silently. This package makes them machine-checked:

* :mod:`repro.analysis.engine` walks files, parses each module once and
  dispatches registered rules; ``# repro: noqa[RULE]`` comments suppress
  findings line by line.
* :mod:`repro.analysis.rules` ships the builtin invariants R001–R003
  and R005–R007: no global RNG state, no wall-clock reads in simulation
  paths, seeds must be threaded, knob literals must agree with the
  registry, recorder threading, and bounded control-plane loops.
* :mod:`repro.analysis.reporters` renders findings as text or JSON.

Run it as ``repro lint src/`` (see :mod:`repro.cli`), or call
:meth:`Linter.lint_paths` directly.
"""

from repro.analysis.engine import Linter, ParsedModule
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, all_rules, get_rule, register
from repro.analysis.reporters import render, render_json, render_text

__all__ = [
    "Finding",
    "Linter",
    "ParsedModule",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "register",
    "render",
    "render_json",
    "render_text",
]
