"""The lint engine: file discovery, parsing, rule dispatch, suppressions.

One :class:`Linter` is built per run with a *root* directory (paths in
findings are reported relative to it) and an optional rule selection. It
walks the requested paths, parses each ``.py`` file once, hands the
:class:`ParsedModule` to every rule, and filters out findings suppressed
by a ``# repro: noqa[RULE]`` comment on the offending line.

Suppression syntax::

    x = np.random.default_rng()   # repro: noqa[R003]  interactive helper
    y = time.time()               # repro: noqa[R002,R001]
    z = random.random()           # repro: noqa  (blanket; avoid)
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

from repro.analysis.findings import Finding, Severity
from repro.analysis.imports import ImportMap
from repro.analysis.registry import all_rules, get_rule

__all__ = [
    "ParsedModule",
    "Linter",
    "is_library_module",
    "is_rng_module",
    "in_simulation_path",
]

#: Directories never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True, slots=True)
class ParsedModule:
    """One parsed source file plus everything rules need to inspect it."""

    path: Path
    relpath: PurePosixPath
    tree: ast.Module
    lines: tuple[str, ...]
    imports: ImportMap

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Whether *rule_id* is suppressed on physical *line* (1-based)."""
        if not 1 <= line <= len(self.lines):
            return False
        match = _SUPPRESS_RE.search(self.lines[line - 1])
        if match is None:
            return False
        listed = match.group(1)
        if listed is None:
            return True  # blanket ``# repro: noqa``
        return rule_id in {part.strip() for part in listed.split(",")}


def is_library_module(relpath: PurePosixPath) -> bool:
    """Whether *relpath* is library code (inside the ``repro`` package).

    Library-only rules (route RNG construction through
    ``repro.common.rng``, knob-registry consistency) apply here but not to
    tests or benchmarks, which legitimately build local seeded generators
    and out-of-range knob values.
    """
    return "repro" in relpath.parts


def is_rng_module(relpath: PurePosixPath) -> bool:
    """Whether *relpath* is the sanctioned RNG module ``common/rng.py``."""
    return relpath.parts[-2:] == ("common", "rng.py")


def in_simulation_path(relpath: PurePosixPath) -> bool:
    """Whether *relpath* is simulation-facing, non-benchmark code.

    The determinism rules treat ``dbsim/``, ``core/``, ``tuners/`` and
    ``workloads/`` as simulation paths: anything there runs inside seeded
    experiments and must never read wall-clock time.
    """
    parts = set(relpath.parts[:-1])
    if not parts & {"dbsim", "core", "tuners", "workloads"}:
        return False
    return "bench" not in relpath.parts[-1]


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under *paths* (files pass through)."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            if any(
                part in _SKIP_DIRS or part.endswith(".egg-info")
                for part in candidate.parts
            ):
                continue
            seen.add(resolved)
            yield candidate


class Linter:
    """Run a set of rules over a set of paths.

    Parameters
    ----------
    root:
        Findings report paths relative to this directory (default: cwd).
    select:
        Rule ids to run; ``None`` runs every registered rule.
    """

    def __init__(
        self,
        root: Path | None = None,
        select: Sequence[str] | None = None,
    ) -> None:
        self.root = (root or Path.cwd()).resolve()
        if select is None:
            rule_classes = all_rules()
        else:
            rule_classes = [get_rule(rule_id) for rule_id in select]
        self.rules = [cls() for cls in rule_classes]

    def parse(self, path: Path) -> ParsedModule | Finding:
        """Parse one file; a syntax error becomes an ``R000`` finding."""
        relpath = self._relpath(path)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return Finding(
                "R000",
                Severity.ERROR,
                relpath,
                exc.lineno or 1,
                (exc.offset or 1) - 1,
                f"syntax error: {exc.msg}",
            )
        return ParsedModule(
            path=path,
            relpath=relpath,
            tree=tree,
            lines=tuple(source.splitlines()),
            imports=ImportMap(tree),
        )

    def lint_paths(self, paths: Sequence[Path]) -> list[Finding]:
        """All unsuppressed findings under *paths*, sorted."""
        findings: list[Finding] = []
        for path in iter_python_files(paths):
            parsed = self.parse(path)
            if isinstance(parsed, Finding):
                findings.append(parsed)
                continue
            findings.extend(
                finding
                for rule in self.rules
                for finding in rule.check(parsed)
                if not parsed.suppressed(finding.rule, finding.line)
            )
        findings.sort(key=Finding.sort_key)
        return findings

    def _relpath(self, path: Path) -> PurePosixPath:
        resolved = path.resolve()
        try:
            return PurePosixPath(resolved.relative_to(self.root))
        except ValueError:
            return PurePosixPath(resolved)
