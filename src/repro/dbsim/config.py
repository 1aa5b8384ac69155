"""Knob configurations: validated knob→value mappings.

A :class:`KnobConfiguration` binds a :class:`~repro.dbsim.knobs.KnobCatalog`
to concrete values, validating ranges and exposing the §4 memory-budget
check ``A + B + C + D < X`` (buffer pool plus per-connection working areas
must fit in the memory granted to the database process).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.dbsim.knobs import KnobCatalog

__all__ = [
    "BUDGET_HEADROOM",
    "BUFFER_SHARE",
    "KnobConfiguration",
    "MemoryBudgetError",
    "effective_sessions",
    "fit_values_to_budget",
]

#: Fraction of active connections assumed to run memory-hungry operations
#: (sorts, index builds) simultaneously. Charging every connection its full
#: working area would make almost the whole knob space infeasible; real
#: capacity planning uses a concurrency discount like this.
_CONCURRENCY_FACTOR = 0.25

#: Share of the memory limit a repaired configuration may fill: budget
#: repair keeps 5% of the limit free.
BUDGET_HEADROOM = 0.95

#: Largest share of the memory budget the buffer pool may take.
BUFFER_SHARE = 0.7


def effective_sessions(active_connections: int) -> float:
    """Concurrent memory-hungry sessions implied by *active_connections*."""
    if active_connections < 1:
        raise ValueError("active_connections must be >= 1")
    return max(1.0, active_connections * _CONCURRENCY_FACTOR)


class MemoryBudgetError(ValueError):
    """Raised when a configuration cannot fit in the process memory budget."""


class KnobConfiguration:
    """Immutable-by-convention mapping of knob name to value.

    Use :meth:`with_values` to derive modified configurations; detectors
    and tuners never mutate a configuration in place.
    """

    def __init__(
        self, catalog: KnobCatalog, values: Mapping[str, float] | None = None
    ) -> None:
        merged = catalog.defaults()
        if values:
            for name, value in values.items():
                knob = catalog.get(name)
                if not knob.min_value <= value <= knob.max_value:
                    raise ValueError(
                        f"{name}={value} outside [{knob.min_value}, {knob.max_value}]"
                    )
                merged[name] = float(value)
        self._bind(catalog, merged)

    def _bind(self, catalog: KnobCatalog, values: dict[str, float]) -> None:
        self.catalog = catalog
        self._values = values
        self._hash: int | None = None
        #: The normalised knob vector, memoised by
        #: :func:`repro.tuners.base.config_to_vector` (read-only).
        self._vector: np.ndarray | None = None

    @classmethod
    def _from_valid(
        cls, catalog: KnobCatalog, values: dict[str, float]
    ) -> "KnobConfiguration":
        """A configuration owning *values*, already checked and float."""
        config = cls.__new__(cls)
        config._bind(catalog, values)
        return config

    def __getitem__(self, name: str) -> float:
        self.catalog.get(name)  # raise a flavour-aware KeyError if unknown
        return self._values[name]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnobConfiguration):
            return NotImplemented
        return (
            self.catalog.flavor == other.catalog.flavor
            and self._values == other._values
        )

    def __hash__(self) -> int:
        # Configurations are immutable by convention and hashed hot (they
        # key the planner's per-config caches), so compute once.
        if self._hash is None:
            self._hash = hash(
                (self.catalog.flavor, tuple(sorted(self._values.items())))
            )
        return self._hash

    def __getstate__(self) -> dict[str, object]:
        # The memoised hash comes from this process's string-hash seed;
        # an unpickled copy (a spawned worker's, say) computes its own.
        # The memoised vector does not travel either, so pickles hold
        # the same bytes whether or not a configuration was vectorised.
        state = dict(self.__dict__)
        state["_hash"] = None
        del state["_vector"]
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._vector = None

    def as_dict(self) -> dict[str, float]:
        """Copy of all knob values."""
        return dict(self._values)

    def with_values(self, updates: Mapping[str, float]) -> "KnobConfiguration":
        """A new configuration with *updates* applied (and validated).

        Held values are valid, so only updates are checked; a bad one goes
        through the constructor, which raises as for the merged values.
        """
        get = self.catalog.get
        values = dict(self._values)
        try:
            for name, value in updates.items():
                knob = get(name)
                if not knob.min_value <= value <= knob.max_value:
                    raise ValueError(name)
                values[name] = float(value)
        except (KeyError, TypeError, ValueError):
            return KnobConfiguration(self.catalog, {**self._values, **updates})
        return KnobConfiguration._from_valid(self.catalog, values)

    def clamped(self, updates: Mapping[str, float]) -> "KnobConfiguration":
        """Like :meth:`with_values` but clamping out-of-range values."""
        get = self.catalog.get
        return self.with_values({n: get(n).clamp(v) for n, v in updates.items()})

    def diff(self, other: "KnobConfiguration") -> dict[str, tuple[float, float]]:
        """Knobs whose values differ, as ``{name: (self_value, other_value)}``."""
        out: dict[str, tuple[float, float]] = {}
        for name, value in self._values.items():
            other_value = other._values.get(name)
            if other_value is not None and other_value != value:
                out[name] = (value, other_value)
        return out

    # -- memory budget (§4: A + B + C + D < X) --------------------------------

    def buffer_pool_mb(self) -> float:
        """The non-tunable buffer-pool knob's value (A in the §4 equation)."""
        return self._values[self.catalog.buffer_pool_name]

    def working_area_mb(self) -> float:
        """Sum of the tunable memory knobs (B + C + D …)."""
        total = 0.0
        for knob in self.catalog.memory_budget_knobs():
            if not knob.restart_required:
                total += self._values[knob.name]
        return total

    def memory_footprint_mb(self, active_connections: int = 1) -> float:
        """Estimated process footprint with *active_connections* sessions.

        The buffer pool is shared; working areas are charged per
        *effective* concurrent session (see :func:`effective_sessions`),
        matching how PostgreSQL's ``work_mem`` family multiplies under
        concurrency.
        """
        return (
            self.buffer_pool_mb()
            + self._restart_memory_mb()
            + self.working_area_mb() * effective_sessions(active_connections)
        )

    def _restart_memory_mb(self) -> float:
        return sum(
            self._values[k.name]
            for k in self.catalog.memory_budget_knobs()
            if k.restart_required and k.name != self.catalog.buffer_pool_name
        )

    def check_memory_budget(
        self, memory_limit_mb: float, active_connections: int = 1
    ) -> None:
        """Raise :class:`MemoryBudgetError` if the footprint exceeds the limit."""
        footprint = self.memory_footprint_mb(active_connections)
        if footprint >= memory_limit_mb:
            raise MemoryBudgetError(
                f"configured memory {footprint:.0f} MB >= limit "
                f"{memory_limit_mb:.0f} MB "
                f"(buffer {self.buffer_pool_mb():.0f} MB + working areas "
                f"{self.working_area_mb():.0f} MB x {active_connections})"
            )

    def fitted_to_budget(
        self, memory_limit_mb: float, active_connections: int = 1
    ) -> "KnobConfiguration":
        """A copy repaired to fit the §4 memory budget.

        Policy: the budget is :data:`BUDGET_HEADROOM` of the limit; the
        buffer pool may take at most :data:`BUFFER_SHARE` of it (shrunk
        if above); the tunable working-area knobs are then
        scaled down uniformly until the per-session charge fits in the
        remainder. Knob minimums are always respected, so an impossibly
        small budget yields the closest legal configuration rather than an
        exception.
        """
        budget = memory_limit_mb * BUDGET_HEADROOM
        sessions = effective_sessions(active_connections)
        updates: dict[str, float] = {}

        buffer_name = self.catalog.buffer_pool_name
        buffer_knob = self.catalog.get(buffer_name)
        buffer_mb = min(self.buffer_pool_mb(), BUFFER_SHARE * budget)
        buffer_mb = buffer_knob.clamp(buffer_mb)
        if buffer_mb != self.buffer_pool_mb():
            updates[buffer_name] = buffer_mb

        allowed = max(0.0, budget - buffer_mb)
        shrinkable = [
            k
            for k in self.catalog.memory_budget_knobs()
            if k.name != buffer_name
        ]
        # Per-MB charge against the budget: working areas multiply per
        # effective session, restart-required pools (wal_buffers) count once.
        weight = {
            k.name: (1.0 if k.restart_required else sessions) for k in shrinkable
        }
        values = {k.name: self._values[k.name] for k in shrinkable}
        # Uniform scaling can undershoot when some knobs clamp at their
        # minimum; iterate, redistributing the shortfall onto the knobs
        # that still have headroom above their floors.
        for _ in range(6):
            charge = sum(values[n] * weight[n] for n in values)
            if charge <= allowed:
                break
            reducible = sum(
                (values[k.name] - k.min_value) * weight[k.name] for k in shrinkable
            )
            if reducible <= 1e-12:
                break
            shrink = min(1.0, (charge - allowed) / reducible)
            for knob in shrinkable:
                excess = values[knob.name] - knob.min_value
                values[knob.name] = knob.clamp(
                    values[knob.name] - excess * shrink
                )
        for name, value in values.items():
            if value != self._values[name]:
                updates[name] = value
        if not updates:
            return self
        return self.with_values(updates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        changed = {
            n: v for n, v in self._values.items()
            if v != self.catalog.get(n).default
        }
        return f"KnobConfiguration({self.catalog.flavor}, changed={changed})"


def fit_values_to_budget(
    values: np.ndarray,
    catalog: KnobCatalog,
    memory_limit_mb: float,
    active_connections: int = 1,
    frozen: np.ndarray | None = None,
) -> np.ndarray:
    """Batched :meth:`KnobConfiguration.fitted_to_budget` over value rows.

    *values* is an (n, d) matrix of knob values in catalog order; the
    result applies the exact same repair policy row by row — buffer pool
    capped at :data:`BUFFER_SHARE` of the budget, then the working-area
    knobs scaled down iteratively (respecting their floors) until the
    per-session charge fits — without materialising a single
    :class:`KnobConfiguration`. The per-row arithmetic mirrors the scalar
    method operation for operation, including the knob iteration order of
    the charge sums, so a repaired row matches the scalar repair bitwise.

    *frozen*, a ``(d,)`` boolean mask in catalog order, names columns the
    repair never moves: the dynamic knob selector carries inactive knobs
    byte-identically from the incumbent, so they still count against the
    budget but only the unfrozen working-area knobs absorb the shrink.
    """
    (
        buffer_idx,
        buffer_min,
        buffer_max,
        shrink_idx,
        shrink_min,
        shrink_max,
        restart_mask,
    ) = catalog.budget_fit_arrays()
    out = np.array(values, dtype=float, copy=True)
    if out.ndim != 2 or out.shape[1] != len(catalog):
        raise ValueError("values must be (n, d) in catalog order")
    frozen = (
        np.zeros(len(catalog), dtype=bool)
        if frozen is None
        else np.asarray(frozen, dtype=bool)
    )
    if frozen.shape != (len(catalog),):
        raise ValueError("frozen must be a (d,) mask in catalog order")
    budget = memory_limit_mb * BUDGET_HEADROOM
    sessions = effective_sessions(active_connections)
    weights = np.where(restart_mask, 1.0, sessions)

    buffer_mb = out[:, buffer_idx]
    if not frozen[buffer_idx]:
        buffer_mb = np.minimum(buffer_mb, BUFFER_SHARE * budget)
        buffer_mb = np.clip(buffer_mb, buffer_min, buffer_max)
        out[:, buffer_idx] = buffer_mb
    allowed = np.maximum(0.0, budget - buffer_mb)

    work = out[:, shrink_idx]  # (n, k) copy via fancy indexing
    movable = ~frozen[shrink_idx]
    active = np.ones(len(out), dtype=bool)
    for _ in range(6):
        # Accumulate in knob order so the float sums match the scalar
        # method's sequential sums exactly.
        charge = np.zeros(len(out))
        reducible = np.zeros(len(out))
        for k in range(work.shape[1]):
            charge += work[:, k] * weights[k]
            if movable[k]:
                reducible += (work[:, k] - shrink_min[k]) * weights[k]
        active &= charge > allowed
        active &= reducible > 1e-12
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            shrink = np.minimum(1.0, (charge - allowed) / reducible)
        rows = np.where(active)[0]
        excess = work[rows] - shrink_min
        repaired = np.clip(
            work[rows] - excess * shrink[rows, None], shrink_min, shrink_max
        )
        # Frozen columns bypass even the clip so their bytes never move.
        work[rows] = np.where(movable, repaired, work[rows])
    out[:, shrink_idx] = work
    return out
