"""Rule base class and registry for ``repro lint``.

A rule is a small class with an ``id`` (``R001``-style), a one-line
``title``, a default :class:`~repro.analysis.findings.Severity` and a
``check`` method that yields findings for one parsed module. Rules
register themselves with the :func:`register` decorator; the engine
instantiates every registered rule once per lint run (rules may hold
per-run caches, e.g. the knob registry).
"""

from __future__ import annotations

import abc
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis.findings import Finding, Severity

if TYPE_CHECKING:  # circular at runtime only: engine imports the registry
    from repro.analysis.engine import ParsedModule

__all__ = ["Rule", "register", "all_rules", "get_rule"]


class Rule(abc.ABC):
    """One invariant check, run against every linted module."""

    id: str = ""
    title: str = ""
    severity: Severity = Severity.ERROR

    @abc.abstractmethod
    def check(self, module: ParsedModule) -> Iterator[Finding]:
        """Yield findings for *module*."""

    def finding(
        self, module: ParsedModule, line: int, col: int, message: str
    ) -> Finding:
        """Convenience constructor pinning rule id/severity."""
        return Finding(self.id, self.severity, module.relpath, line, col, message)


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator: add *rule_cls* to the global registry."""
    if not rule_cls.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> list[type[Rule]]:
    """Registered rule classes, sorted by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> type[Rule]:
    """One registered rule class by id (KeyError with the known set)."""
    _load_builtin_rules()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def _load_builtin_rules() -> None:
    """Import the builtin rule modules so their ``register`` calls run."""
    from repro.analysis import rules  # noqa: F401  (import side effect)
