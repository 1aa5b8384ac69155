"""What ``repro lint`` rules read and what they report.

A rule reads one :class:`ParsedModule` at a time; the engine pins each
violation it yields to a file and line as a :class:`Finding`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import PurePosixPath

from repro.analysis.imports import ImportMap

__all__ = ["Finding", "ParsedModule"]


@dataclass(frozen=True, order=True, slots=True)
class Finding:
    """One rule violation at ``path:line:col``; findings sort by position.

    ``path`` is POSIX-style and relative to the lint root, so output is
    stable across machines and usable in CI annotations.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str


@dataclass(frozen=True, slots=True)
class ParsedModule:
    """One parsed source file plus everything rules need to inspect it."""

    relpath: PurePosixPath
    tree: ast.Module
    imports: ImportMap

    def calls(self) -> Iterator[tuple[ast.Call, str]]:
        """Each call whose callee resolves to an imported name, with that name."""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                qualified = self.imports.qualify(node.func)
                if qualified is not None:
                    yield node, qualified
