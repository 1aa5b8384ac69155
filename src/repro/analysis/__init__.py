"""``repro lint``: AST checks for the reproduction's determinism invariants.

The seeded benches are byte-identical only while every random draw flows
from a threaded, explicitly seeded generator and no simulation result
depends on the host clock. Three rules check that statically, for the
defects no runtime check catches (see ``docs/static_analysis.md``):

* R001 no draw from module-level RNG state,
* R002 no wall-clock read in simulation paths,
* R003 no generator constructed without an explicit seed.

Run it as ``repro lint src/`` (see :mod:`repro.cli`), or call
:func:`lint_paths` directly.
"""

from repro.analysis.engine import lint_paths
from repro.analysis.findings import Finding, ParsedModule
from repro.analysis.reporters import render_text
from repro.analysis.rules import RULES

__all__ = ["RULES", "Finding", "ParsedModule", "lint_paths", "render_text"]
