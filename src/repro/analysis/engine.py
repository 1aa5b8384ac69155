"""The lint engine: file discovery, parsing and rule dispatch.

:func:`lint_paths` walks the requested paths, parses each ``.py`` file
once and hands the :class:`ParsedModule` to every rule in
:data:`~repro.analysis.rules.RULES`. A file that does not parse raises
:class:`SyntaxError`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path, PurePosixPath

from repro.analysis.findings import Finding, ParsedModule
from repro.analysis.imports import ImportMap
from repro.analysis.rules import RULES

__all__ = ["lint_paths"]

#: Directories never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}


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


def _parse(path: Path, root: Path) -> ParsedModule:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    resolved = path.resolve()
    relpath = resolved.relative_to(root) if resolved.is_relative_to(root) else resolved
    return ParsedModule(PurePosixPath(relpath), tree, ImportMap(tree))


def lint_paths(paths: Sequence[Path], root: Path | None = None) -> list[Finding]:
    """Every finding under *paths*, sorted by position.

    Findings report paths relative to *root* (default: the working
    directory).
    """
    resolved_root = (root or Path.cwd()).resolve()
    return sorted(
        Finding(str(module.relpath), node.lineno, node.col_offset, rule, message)
        for module in (_parse(path, resolved_root) for path in iter_python_files(paths))
        for rule, check in RULES
        for node, message in check(module)
    )
