"""Query model shared by the workload generators, DB simulator and TDE.

A :class:`Query` is a typed, resource-annotated unit of work. The simulator
does not parse SQL; instead each query carries a :class:`QueryFootprint`
describing the resources its execution demands (working-area memory for
sorts/joins, maintenance memory for index builds, temp-table bytes, bytes
read and written, parallelisable fraction, planner sensitivity). These
footprints are what drive throttles: a sort whose ``sort_mb`` exceeds
``work_mem`` spills to disk exactly like PostgreSQL's executor would.

A window's query-log sample is a :class:`QueryRows`: the rows are held as
columns (a family index and the jittered footprint resources), and a
:class:`Query` is built only for a row something indexes.

Footprint magnitudes for the standard benchmarks follow Fig. 2 of the
paper (e.g. TPC-C uses ~0.5 MB of working memory; the aggregation queries
added to the adulterated TPC-C need ~350 MB).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import overload

import numpy as np

from repro.workloads.templating import make_template

__all__ = [
    "FOOTPRINT_COLUMNS",
    "QueryType",
    "QueryFootprint",
    "QueryFamily",
    "Query",
    "QueryRows",
    "jitter_columns",
]

#: The footprint resources that vary per statement, in column order.
FOOTPRINT_COLUMNS = ("sort_mb", "maintenance_mb", "temp_mb", "read_kb", "write_kb")
#: Each positive resource of a logged statement is its family's value
#: scaled by a uniform factor in ``1 ± _JITTER``.
_JITTER = 0.15
#: A literal per parameter kind, rendered into a family's template before
#: templating; each normalises to ``?``.
_PARAM_LITERALS = {"int": "0", "str": "''", "float": "0.0"}


class QueryType(enum.Enum):
    """Broad statement type, used for read/write accounting and grouping."""

    SELECT = "select"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    JOIN = "join"
    AGGREGATE = "aggregate"
    ORDER_BY = "order_by"
    INDEX_CREATE = "index_create"
    INDEX_DROP = "index_drop"
    TEMP_TABLE = "temp_table"
    ALTER_TABLE = "alter_table"

    @property
    def is_write(self) -> bool:
        """Whether the statement dirties pages / produces WAL."""
        return self in _WRITE_TYPES


_WRITE_TYPES = frozenset(
    {
        QueryType.INSERT,
        QueryType.UPDATE,
        QueryType.DELETE,
        QueryType.INDEX_CREATE,
        QueryType.INDEX_DROP,
        QueryType.TEMP_TABLE,
        QueryType.ALTER_TABLE,
    }
)


@dataclass(frozen=True, slots=True)
class QueryFootprint:
    """Resource demand of one execution of a query.

    Attributes
    ----------
    rows_examined / rows_returned:
        Tuple traffic, feeds the pg_stat-style metrics.
    sort_mb:
        Working-area memory (MB) the executor needs for sorts, hash joins
        and aggregations. Compared against ``work_mem`` /
        ``sort_buffer_size``; the shortfall spills to disk.
    maintenance_mb:
        Memory (MB) needed by maintenance operations (index builds, bulk
        deletes). Compared against ``maintenance_work_mem`` /
        ``key_buffer_size``.
    temp_mb:
        Temporary-table bytes (MB). Compared against ``temp_buffers`` /
        ``tmp_table_size``.
    read_kb / write_kb:
        Logical data read and written (KB); reads may hit the buffer pool,
        writes dirty pages and produce WAL.
    parallel_fraction:
        Amdahl-style fraction of the work that parallel workers can share.
    planner_sensitivity:
        In [0, 1]; how strongly execution time reacts to planner-estimate
        knobs being away from their (latent) optimum.
    """

    rows_examined: int = 1
    rows_returned: int = 1
    sort_mb: float = 0.0
    maintenance_mb: float = 0.0
    temp_mb: float = 0.0
    read_kb: float = 4.0
    write_kb: float = 0.0
    parallel_fraction: float = 0.0
    planner_sensitivity: float = 0.0

    def __post_init__(self) -> None:
        for name in FOOTPRINT_COLUMNS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ValueError("parallel_fraction must be in [0, 1]")
        if not 0.0 <= self.planner_sensitivity <= 1.0:
            raise ValueError("planner_sensitivity must be in [0, 1]")

    @property
    def columns(self) -> tuple[float, float, float, float, float]:
        """The per-statement resources, in :data:`FOOTPRINT_COLUMNS` order."""
        return (
            self.sort_mb,
            self.maintenance_mb,
            self.temp_mb,
            self.read_kb,
            self.write_kb,
        )


def jitter_columns(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-statement footprint columns drawn around the family values *base*.

    *base* has one row per statement and the :data:`FOOTPRINT_COLUMNS`
    resources as columns. Each entry is scaled by ``1 ± 0.15``, drawn
    uniformly as one ``rng.random`` matrix of the same shape; a zero
    resource stays zero.
    """
    lo = 1.0 - _JITTER
    span = (1.0 + _JITTER) - lo
    return base * (lo + span * rng.random(base.shape))


@dataclass(frozen=True, slots=True)
class QueryFamily:
    """A parameterised query template with a fixed resource profile.

    Generators emit a family's statements as rows of a :class:`QueryRows`;
    the DB simulator costs whole batches by ``count × footprint`` per
    family, which keeps 10 000-requests-per-second experiments tractable.
    ``param_spec`` names the kind (``int``, ``str`` or ``float``) of each
    ``%s`` placeholder in ``template``.
    """

    name: str
    query_type: QueryType
    template: str
    weight: float
    footprint: QueryFootprint
    param_spec: tuple[str, ...] = field(default_factory=tuple)
    #: The template a log scanner extracts from every statement of this
    #: family: ``template`` with its literals and parameters normalised to
    #: ``?`` (see :func:`~repro.workloads.templating.make_template`).
    log_template: str = field(default="", init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("weight must be >= 0")
        if not self.name:
            raise ValueError("family name must be non-empty")
        text = self.template
        for kind in self.param_spec:
            literal = _PARAM_LITERALS.get(kind)
            if literal is None:
                raise ValueError(f"unknown param kind {kind!r}")
            text = text.replace("%s", literal, 1)
        object.__setattr__(self, "log_template", make_template(text))

    def instantiate(self, footprint: QueryFootprint) -> Query:
        """One statement of this family, as the query log shows it.

        The text is :attr:`log_template` and the footprint *footprint*
        (one log row's jittered resources). Draws nothing.
        """
        return Query(self.query_type, self.log_template, footprint)


@dataclass(frozen=True, slots=True)
class Query:
    """One query as it appears in the streaming query log."""

    query_type: QueryType
    text: str
    footprint: QueryFootprint


class QueryRows(Sequence[Query]):
    """Rows of a query-log sample, held as columns.

    Attributes
    ----------
    families:
        The families the rows index into.
    family_index:
        Each row's index into :attr:`families`.
    footprints:
        Each row's jittered resources, one column per
        :data:`FOOTPRINT_COLUMNS` entry; the other footprint fields are
        family constants.
    counts:
        Rows per family, aligned with :attr:`families`.

    Indexing a row builds its :class:`Query` from these columns and draws
    nothing, so which rows get built never changes any later draw. A
    slice is a view over the same columns.
    """

    __slots__ = ("families", "family_index", "footprints", "counts", "_appearances")

    def __init__(
        self,
        families: tuple[QueryFamily, ...] = (),
        family_index: np.ndarray | None = None,
        footprints: np.ndarray | None = None,
    ) -> None:
        self.families = families
        if family_index is None:
            family_index = np.zeros(0, dtype=np.intp)
        if footprints is None:
            footprints = np.zeros((0, len(FOOTPRINT_COLUMNS)))
        self.family_index = family_index
        self.footprints = footprints
        self.counts = np.bincount(family_index, minlength=len(families))
        self._appearances: list[tuple[int, int, int]] | None = None

    def __len__(self) -> int:
        return len(self.family_index)

    def __repr__(self) -> str:
        # Exact: Python float reprs round-trip, numpy's array repr rounds.
        return (
            f"QueryRows(families={[fam.name for fam in self.families]!r}, "
            f"family_index={self.family_index.tolist()!r}, "
            f"footprints={self.footprints.tolist()!r})"
        )

    @overload
    def __getitem__(self, key: int) -> Query: ...

    @overload
    def __getitem__(self, key: slice) -> QueryRows: ...

    def __getitem__(self, key: int | slice) -> Query | QueryRows:
        if isinstance(key, slice):
            return QueryRows(
                self.families, self.family_index[key], self.footprints[key]
            )
        family = self.families[self.family_index[key]]
        base = family.footprint
        sort_mb, maintenance_mb, temp_mb, read_kb, write_kb = (
            self.footprints[key].tolist()
        )
        return family.instantiate(
            QueryFootprint(
                rows_examined=base.rows_examined,
                rows_returned=base.rows_returned,
                sort_mb=sort_mb,
                maintenance_mb=maintenance_mb,
                temp_mb=temp_mb,
                read_kb=read_kb,
                write_kb=write_kb,
                parallel_fraction=base.parallel_fraction,
                planner_sensitivity=base.planner_sensitivity,
            )
        )

    def appearances(self) -> list[tuple[int, int, int]]:
        """``(family, first_row, last_row)`` per family present.

        In order of each family's first row, which is the order a reader
        of the log meets the families in. Computed once per row set.
        """
        if self._appearances is None:
            index = self.family_index.tolist()
            backwards = index[::-1]
            end = len(index) - 1
            self._appearances = [
                (family, index.index(family), end - backwards.index(family))
                for family in dict.fromkeys(index)
            ]
        return self._appearances
