"""Import resolution: map names in a module back to qualified dotted paths.

Rules reason about *qualified* names — ``numpy.random.seed`` — while
source code uses whatever local aliases its imports introduced (``np``,
``from numpy.random import default_rng``, ``import random as rnd``). An
:class:`ImportMap` is built once per parsed module and resolves attribute
chains and bare names to their fully qualified form, or ``None`` when the
root of the chain is not an imported module (``self.rng.random()`` must
never be mistaken for the stdlib global stream).
"""

from __future__ import annotations

import ast

__all__ = ["ImportMap"]


class ImportMap:
    """Local alias -> qualified module/attribute mapping for one module."""

    def __init__(self, tree: ast.Module) -> None:
        self._aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    # ``import numpy.random`` binds the *root* module name
                    # unless aliased, in which case the alias is the full
                    # dotted path.
                    target = alias.name if alias.asname else local
                    self._aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative imports never shadow stdlib/numpy
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def qualify(self, node: ast.expr) -> str | None:
        """Qualified dotted name of *node*, or ``None``.

        Resolves ``Name`` and ``Attribute`` chains whose root is an
        imported alias: with ``import numpy as np``, ``np.random.seed``
        resolves to ``"numpy.random.seed"``. Chains rooted in anything
        else (locals, ``self``, call results) resolve to ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self._aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))
