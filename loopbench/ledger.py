"""Spans around the program's public entry points, and the layer ledger.

The traced run replaces chosen methods with wrappers that record one
:class:`Span` per call: name, host start and end, the enclosing span,
and the member-window the call belongs to (window index plus instance
id; calls that serve a whole window carry an empty instance). A call
whose arguments do not name its instance gets its parent's, or at top
level that of the next top-level span of its window that names one
(see :func:`resolve_instances`). Spans stay in memory until the run
ends. A layer is the span name up to its last dot
(``core.director.route`` belongs to ``core.director``).

A span's *self time* is its duration minus the durations of its direct
children. Calls nest strictly in one thread, so the self times of every
span under a top-level span add up to that top-level span's duration,
and the wall covered by no span at all is ``unattributed``.
:func:`ledger` checks that identity within 1 %, which fails when spans
overlap (a wrapper that does not restore its stack, or calls recorded
from another thread).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Span",
    "Tracer",
    "layer_of",
    "resolve_instances",
    "self_times",
    "ledger",
    "Ledger",
]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`Tracer.spans`, -1 at top level.
    parent: int
    window: int
    #: ``None`` until :func:`resolve_instances` fills it in.
    instance: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Tracer:
    """Records spans from wrapped callables; restores every patch on exit."""

    def __init__(
        self,
        window: Callable[[], int],
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.spans: list[Span] = []
        self.results: list[Any] = []
        self._window = window
        self._clock = clock
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        instance: str | None | Callable[..., str] = "",
        keep_result: bool = False,
    ) -> Callable[..., Any]:
        """*fn* recording a span named *name* per call.

        *instance* is the member-window's instance id, ``None`` when the
        call does not name it, or a function called with the call's own
        arguments that returns it. With *keep_result*, ``(span index,
        return value)`` is kept in :attr:`results` for per-layer counts.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            who = instance(*args, **kwargs) if callable(instance) else instance
            index = len(spans)
            span = Span(
                name,
                clock(),
                0.0,
                stack[-1] if stack else -1,
                self._window(),
                who,
            )
            spans.append(span)
            stack.append(index)
            try:
                value = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if keep_result:
                self.results.append((index, value))
            return value

        return traced

    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Replace ``owner.attr`` (class or instance) with a traced wrapper."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, **options))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to *value* until :meth:`restore`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        setattr(owner, attr, value)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def resolve_instances(spans: list[Span]) -> None:
    """Fill in every ``None`` instance (see the module docstring)."""
    following: str | None = None
    following_window = None
    for span in reversed(spans):
        if span.parent >= 0:
            continue
        if span.window != following_window:
            following, following_window = None, span.window
        if span.instance is None:
            span.instance = following if following is not None else ""
        elif span.instance:
            following = span.instance
    for span in spans:  # parents precede their children
        if span.instance is None:
            span.instance = spans[span.parent].instance


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its direct children's durations."""
    out = [s.duration for s in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


@dataclass
class Ledger:
    """Per-layer self time over one traced wall interval."""

    wall_s: float
    layer_self_s: dict[str, float]
    unattributed_s: float
    #: Per span name inside the interval: calls, summed durations and
    #: summed self times.
    calls: dict[str, int] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)

    def share(self, layer: str) -> float:
        return self.layer_self_s.get(layer, 0.0) / self.wall_s

    def ranked(self) -> list[tuple[str, float]]:
        """(layer, share) by decreasing share, ``unattributed`` included."""
        shares = {layer: self.share(layer) for layer in self.layer_self_s}
        shares["unattributed"] = self.unattributed_s / self.wall_s
        return sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))

    def closure_error(self) -> float:
        """|Σ self + unattributed − wall| as a share of the wall."""
        booked = sum(self.layer_self_s.values()) + self.unattributed_s
        return abs(booked - self.wall_s) / self.wall_s


def ledger(
    spans: list[Span], start: float, end: float, own: str = "loopbench"
) -> Ledger:
    """Book the spans that start in ``[start, end)`` by layer.

    Top-level spans of layer *own* (the benchmark's own work between
    the program's calls) are taken out of the wall. Raises
    :class:`ValueError` when layer self times plus the uncovered wall
    miss the wall by more than 1 %.
    """
    selfs = self_times(spans)
    inside = [i for i, s in enumerate(spans) if start <= s.start < end]
    own_s = sum(
        spans[i].duration
        for i in inside
        if spans[i].parent < 0 and layer_of(spans[i].name) == own
    )
    inside = [i for i in inside if layer_of(spans[i].name) != own]
    wall = end - start - own_s
    layer_self: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, float] = {}
    name_self: dict[str, float] = {}
    for i in inside:
        name = spans[i].name
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        totals[name] = totals.get(name, 0.0) + spans[i].duration
        name_self[name] = name_self.get(name, 0.0) + selfs[i]
    covered = _covered(
        (spans[i].start, min(spans[i].end, end))
        for i in inside
        if spans[i].parent < 0
    )
    book = Ledger(wall, layer_self, wall - covered, calls, totals, name_self)
    if book.closure_error() > 0.01:
        raise ValueError(
            f"ledger does not close: layers + unattributed miss the wall "
            f"by {book.closure_error():.2%}"
        )
    return book
