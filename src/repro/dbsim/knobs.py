"""Knob definitions and the PostgreSQL-like / MySQL-like catalogs.

The paper's TDE categorises relational-database configuration knobs into
three classes (§3): **memory** knobs (bounded by VM resources; several
require a restart), **background-writer** knobs (checkpointing and dirty
page write-back) and **async/planner-estimate** knobs (parallelism and
optimiser cost constants). Each :class:`KnobDef` carries its class, its
tunable range, whether changing it requires a database restart
("non-tunable" in the paper's terms) and its default.

Catalogs follow PostgreSQL 9.6 and MySQL 5.6 — the versions evaluated in
§5 — restricted to the knobs the paper's detectors actually reason about.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KnobClass",
    "KnobUnit",
    "KnobDef",
    "KnobCatalog",
    "postgres_catalog",
    "mysql_catalog",
    "catalog_for",
]


class KnobClass(enum.Enum):
    """The paper's three throttle classes of §3."""

    MEMORY = "memory"
    BGWRITER = "background_writer"
    ASYNC_PLANNER = "async_planner"


class KnobUnit(enum.Enum):
    """Unit of a knob value, for display and validation."""

    MEGABYTES = "MB"
    SECONDS = "s"
    MILLISECONDS = "ms"
    PAGES = "pages"
    COUNT = "count"
    RATIO = "ratio"
    COST = "cost"


@dataclass(frozen=True)
class KnobDef:
    """One tunable configuration parameter.

    ``restart_required`` marks the paper's "non-tunable knobs": parameters
    that can only change across a database restart and are therefore only
    applied during scheduled maintenance downtime (§4).
    """

    name: str
    knob_class: KnobClass
    unit: KnobUnit
    default: float
    min_value: float
    max_value: float
    restart_required: bool = False

    def __post_init__(self) -> None:
        if not self.min_value <= self.default <= self.max_value:
            raise ValueError(
                f"{self.name}: default {self.default} outside "
                f"[{self.min_value}, {self.max_value}]"
            )

    def clamp(self, value: float) -> float:
        """Clamp *value* into the knob's legal range."""
        return min(self.max_value, max(self.min_value, value))

    @property
    def log_scale(self) -> bool:
        """Whether the knob is ratio-scaled (tuners should log-transform).

        A buffer of 16 MB and one of 3 GB are worlds apart while 60 GB and
        63 GB are equivalent; any knob spanning two-plus orders of
        magnitude gets log-scale treatment in the normalised tuning space
        (standard practice in configuration tuners).
        """
        return self.min_value > 0 and self.max_value / self.min_value >= 64.0


class KnobCatalog:
    """An ordered, named collection of :class:`KnobDef`.

    Provides lookups by name and by class, and knows which knobs count
    against the database process's memory budget (the ``A + B + C + D < X``
    constraint of §4).
    """

    def __init__(self, flavor: str, knobs: list[KnobDef]) -> None:
        self.flavor = flavor
        #: The non-tunable buffer-pool knob (A in §4's memory equation).
        self.buffer_pool_name = (
            "shared_buffers" if flavor == "postgres" else "innodb_buffer_pool_size"
        )
        self._knobs: dict[str, KnobDef] = {}
        for knob in knobs:
            if knob.name in self._knobs:
                raise ValueError(f"duplicate knob {knob.name}")
            self._knobs[knob.name] = knob
        self._memory_budget_knobs = tuple(
            k
            for k in self._knobs.values()
            if k.knob_class is KnobClass.MEMORY and k.unit is KnobUnit.MEGABYTES
        )
        # Array views for the batched transforms and budget repair, built
        # once so every catalog (and every pickle of one) is the same.
        mins = np.array([k.min_value for k in knobs], dtype=float)
        maxs = np.array([k.max_value for k in knobs], dtype=float)
        log_mask = np.array([k.log_scale for k in knobs], dtype=bool)
        self._transform_arrays = (mins, maxs, log_mask, maxs - mins)
        names = self.names()
        buffer_knob = self.get(self.buffer_pool_name)
        shrinkable = [
            k for k in self._memory_budget_knobs if k is not buffer_knob
        ]
        self._budget_fit_arrays = (
            names.index(buffer_knob.name),
            buffer_knob.min_value,
            buffer_knob.max_value,
            np.array([names.index(k.name) for k in shrinkable], dtype=int),
            np.array([k.min_value for k in shrinkable], dtype=float),
            np.array([k.max_value for k in shrinkable], dtype=float),
            np.array([k.restart_required for k in shrinkable], dtype=bool),
        )

    def __contains__(self, name: str) -> bool:
        return name in self._knobs

    def __iter__(self) -> Iterator[KnobDef]:
        return iter(self._knobs.values())

    def __len__(self) -> int:
        return len(self._knobs)

    def get(self, name: str) -> KnobDef:
        """Knob definition by name (KeyError with flavor context)."""
        try:
            return self._knobs[name]
        except KeyError:
            raise KeyError(f"unknown {self.flavor} knob {name!r}") from None

    def names(self) -> list[str]:
        """All knob names, catalog order."""
        return list(self._knobs)

    def by_class(self, knob_class: KnobClass) -> list[KnobDef]:
        """Knobs belonging to *knob_class*, catalog order."""
        return [k for k in self._knobs.values() if k.knob_class == knob_class]

    def defaults(self) -> dict[str, float]:
        """Mapping of every knob to its default value, as floats."""
        return {k.name: float(k.default) for k in self._knobs.values()}

    def memory_budget_knobs(self) -> tuple[KnobDef, ...]:
        """Knobs whose MB values count against the memory budget (built once)."""
        return self._memory_budget_knobs

    def restart_required_knobs(self) -> list[KnobDef]:
        """The paper's non-tunable knobs."""
        return [k for k in self._knobs.values() if k.restart_required]

    def vector_transform_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-catalog ``(mins, maxs, log_mask, spans)`` arrays (built once).

        The batched vector<->value transforms in :mod:`repro.tuners.base`
        are called with thousands of candidate rows per recommendation;
        rebuilding these little arrays from the knob definitions on every
        call would dominate the transform.
        """
        return self._transform_arrays

    def budget_fit_arrays(
        self,
    ) -> tuple[int, float, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Indices and bounds for :func:`~repro.dbsim.config.fit_values_to_budget`.

        Returns ``(buffer_idx, buffer_min, buffer_max, shrink_idx,
        shrink_min, shrink_max, restart_mask)`` where the shrink arrays
        cover the memory-budget knobs except the buffer pool, in catalog
        order (the order the scalar repair iterates them in). Built once.
        """
        return self._budget_fit_arrays


def postgres_catalog() -> KnobCatalog:
    """Knob catalog modelled on PostgreSQL 9.6."""
    mb = KnobUnit.MEGABYTES
    return KnobCatalog(
        "postgres",
        [
            # -- memory class -------------------------------------------------
            # Buffer pool; the paper's canonical non-tunable knob.
            KnobDef(
                "shared_buffers", KnobClass.MEMORY, mb, 128, 16, 65_536,
                restart_required=True,
            ),
            # Per-operation working area for sorts/hashes/joins.
            KnobDef("work_mem", KnobClass.MEMORY, mb, 4, 1, 4_096),
            # Working area for index builds, VACUUM, bulk deletes.
            KnobDef("maintenance_work_mem", KnobClass.MEMORY, mb, 64, 8, 8_192),
            # Per-session temporary-table buffers.
            KnobDef("temp_buffers", KnobClass.MEMORY, mb, 8, 1, 2_048),
            # WAL staging buffers.
            KnobDef(
                "wal_buffers", KnobClass.MEMORY, mb, 16, 1, 1_024,
                restart_required=True,
            ),
            # -- background-writer class --------------------------------------
            # Maximum time between automatic checkpoints.
            KnobDef(
                "checkpoint_timeout", KnobClass.BGWRITER, KnobUnit.SECONDS,
                300, 30, 3_600,
            ),
            # WAL volume that forces a requested checkpoint.
            KnobDef("max_wal_size", KnobClass.BGWRITER, mb, 1_024, 64, 16_384),
            # Fraction of the interval to spread checkpoint I/O over.
            KnobDef(
                "checkpoint_completion_target", KnobClass.BGWRITER,
                KnobUnit.RATIO, 0.5, 0.1, 0.9,
            ),
            # Sleep between background-writer rounds.
            KnobDef(
                "bgwriter_delay", KnobClass.BGWRITER, KnobUnit.MILLISECONDS,
                200, 10, 10_000,
            ),
            # Dirty pages written per background-writer round.
            KnobDef(
                "bgwriter_lru_maxpages", KnobClass.BGWRITER, KnobUnit.PAGES,
                100, 0, 1_000,
            ),
            # -- async / planner-estimate class -------------------------------
            # Planner's belief about OS+DB cache size.
            KnobDef(
                "effective_cache_size", KnobClass.ASYNC_PLANNER, mb,
                4_096, 128, 131_072,
            ),
            # Planner cost of a non-sequential page fetch.
            KnobDef(
                "random_page_cost", KnobClass.ASYNC_PLANNER, KnobUnit.COST,
                4.0, 0.5, 10.0,
            ),
            # Concurrent async I/O requests the planner assumes.
            KnobDef(
                "effective_io_concurrency", KnobClass.ASYNC_PLANNER,
                KnobUnit.COUNT, 1, 0, 64,
            ),
            # Parallel workers one query may use.
            KnobDef(
                "max_parallel_workers_per_gather", KnobClass.ASYNC_PLANNER,
                KnobUnit.COUNT, 2, 0, 16,
            ),
        ],
    )


def mysql_catalog() -> KnobCatalog:
    """Knob catalog modelled on MySQL 5.6 / InnoDB."""
    mb = KnobUnit.MEGABYTES
    return KnobCatalog(
        "mysql",
        [
            # -- memory class -------------------------------------------------
            # InnoDB buffer pool; non-tunable in 5.6.
            KnobDef(
                "innodb_buffer_pool_size", KnobClass.MEMORY, mb,
                128, 16, 65_536,
                restart_required=True,
            ),
            # Per-session sort buffer (paper: TPCC's hot knob).
            KnobDef("sort_buffer_size", KnobClass.MEMORY, mb, 0.25, 0.03, 1_024),
            # Per-join buffer for unindexed joins.
            KnobDef("join_buffer_size", KnobClass.MEMORY, mb, 0.25, 0.125, 1_024),
            # MyISAM key cache; index-build working memory.
            KnobDef("key_buffer_size", KnobClass.MEMORY, mb, 8, 1, 8_192),
            # In-memory temporary table ceiling.
            KnobDef("tmp_table_size", KnobClass.MEMORY, mb, 16, 1, 4_096),
            # -- background-writer class --------------------------------------
            # Redo log size; bounds checkpoint age.
            KnobDef(
                "innodb_log_file_size", KnobClass.BGWRITER, mb, 48, 4, 4_096,
                restart_required=True,
            ),
            # Background flushing IOPS budget.
            KnobDef(
                "innodb_io_capacity", KnobClass.BGWRITER, KnobUnit.COUNT,
                200, 100, 20_000,
            ),
            # Pages the page cleaner scans per second.
            KnobDef(
                "innodb_lru_scan_depth", KnobClass.BGWRITER, KnobUnit.PAGES,
                1_024, 100, 16_384,
            ),
            # Flush contiguous dirty neighbours (HDD era).
            KnobDef(
                "innodb_flush_neighbors", KnobClass.BGWRITER, KnobUnit.COUNT,
                1, 0, 2,
            ),
            # Dirty-page fraction that forces aggressive flushing.
            KnobDef(
                "innodb_max_dirty_pages_pct", KnobClass.BGWRITER,
                KnobUnit.RATIO, 0.75, 0.0, 0.99,
            ),
            # -- async / planner-estimate class -------------------------------
            # Join-order search depth.
            KnobDef(
                "optimizer_search_depth", KnobClass.ASYNC_PLANNER,
                KnobUnit.COUNT, 62, 0, 62,
            ),
            # Equality ranges estimated by index dives.
            KnobDef(
                "eq_range_index_dive_limit", KnobClass.ASYNC_PLANNER,
                KnobUnit.COUNT, 10, 0, 1_000,
            ),
            # Concurrent threads inside InnoDB (0 = unlimited).
            KnobDef(
                "innodb_thread_concurrency", KnobClass.ASYNC_PLANNER,
                KnobUnit.COUNT, 0, 0, 64,
            ),
            # Sequential accesses that trigger read-ahead.
            KnobDef(
                "innodb_read_ahead_threshold", KnobClass.ASYNC_PLANNER,
                KnobUnit.PAGES, 56, 0, 64,
            ),
        ],
    )


def catalog_for(flavor: str) -> KnobCatalog:
    """Catalog for *flavor* ("postgres" or "mysql")."""
    if flavor == "postgres":
        return postgres_catalog()
    if flavor == "mysql":
        return mysql_catalog()
    raise ValueError(f"unknown DBMS flavor {flavor!r}")
