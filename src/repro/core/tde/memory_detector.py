"""Memory-knob throttle detection (§3.1).

Per window the detector:

1. feeds the streaming-log sample through query templating and reservoir
   sampling to pick a tractable set of query templates — reservoir entry
   in the order templates first appear, each template's latest row kept
   as its example, query classes from the footprint columns;
2. checks the latest example of each selected template against the
   live database's working-area allowances, as EXPLAIN's disk flags do
   (the simulator's EXPLAIN reads the statement's footprint, not its
   parameters), straight from the example row's footprint columns; any
   template that spills a working area to disk means the corresponding
   memory knob is too small → throttle;
3. gauges the working page set against the buffer pool (Curino et al.'s
   approach [5]); an undersized buffer raises a *restart-required*
   throttle that the config director holds for scheduled downtime;
4. runs every working-area throttle through the §3.1 entropy filter,
   which escalates to a plan-upgrade request when the knobs are already
   at their caps and the query classes fire evenly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tde.entropy import EntropyFilter, QueryClassHistogram
from repro.core.tde.throttle import PlanUpgradeRequest, Throttle
from repro.dbsim.config import BUDGET_HEADROOM, effective_sessions
from repro.dbsim.engine import ExecutionResult, SimulatedDatabase
from repro.dbsim.knobs import KnobClass
from repro.dbsim.memory import HOT_FRACTION, working_area_knobs
from repro.workloads.query import QueryRows
from repro.workloads.sampling import ReservoirSampler

__all__ = ["MemoryDetectionReport", "MemoryThrottleDetector"]

#: A knob is "at cap" when within this fraction of its maximum (or of the
#: largest value the VM budget permits).
_CAP_FRACTION = 0.95
#: Buffer-pool gauging: throttle when the working set exceeds the pool by
#: this factor AND the hit ratio is poor.
_BUFFER_UNDERSIZE_FACTOR = 2.0
_BUFFER_HIT_THRESHOLD = 0.6
#: Buffer gauging only fires when the window is read-pressured.
_GAUGE_WRITE_FRACTION_MAX = 0.55


@dataclass
class MemoryDetectionReport:
    """Outcome of one detection round."""

    throttles: list[Throttle] = field(default_factory=list)
    escalations: list[PlanUpgradeRequest] = field(default_factory=list)


class MemoryThrottleDetector:
    """Plan-spill + buffer-gauging detector with the entropy filter."""

    def __init__(
        self,
        instance_id: str,
        reservoir_capacity: int = 64,
        entropy_filter: EntropyFilter | None = None,
        cap_filter_enabled: bool = True,
        seed: int = 0,
    ) -> None:
        self.instance_id = instance_id
        self.cap_filter_enabled = cap_filter_enabled
        # §3.1 reservoir-samples *templates* from the pool extracted from
        # the streaming log: a template enters the reservoir once, when
        # first seen, so rare-but-heavy statements are examined with the
        # same probability as frequent ones.
        self.reservoir: ReservoirSampler[str] = ReservoirSampler(
            reservoir_capacity, seed=seed
        )
        # Template text -> its latest log row ``(rows, row)``, the
        # example EXPLAIN reads; a template not in it is unseen.
        self._examples: dict[str, tuple[QueryRows, int]] = {}
        self.histogram = QueryClassHistogram()
        self.filter = entropy_filter if entropy_filter is not None else EntropyFilter()

    def inspect(
        self, db: SimulatedDatabase, result: ExecutionResult
    ) -> MemoryDetectionReport:
        """Run one detection round over an executed window."""
        report = MemoryDetectionReport()
        batch = result.batch
        self._observe(batch.sampled_queries)
        self.histogram.observe_rows(batch.sampled_queries)
        # The full log also contains every family's statements, even those
        # a uniform sample misses; class frequencies stay with the sample.
        self._observe(batch.family_examples)

        spilled = self._spills(db)
        implicated: set[str] = set()
        for category in spilled:
            implicated.update(self._knobs_for(db, category))

        if implicated:
            throttle = Throttle(
                instance_id=self.instance_id,
                workload_id=result.batch.workload_name,
                knob_class=KnobClass.MEMORY,
                knobs=tuple(sorted(implicated)),
                reason=(
                    "plans spill to disk in categories: "
                    + ", ".join(sorted(spilled))
                ),
                time_s=result.start_time_s + result.duration_s,
            )
            at_cap = self.cap_filter_enabled and self._knobs_at_cap(db, implicated)
            if self.filter.should_escalate(self.histogram, at_cap):
                report.escalations.append(
                    PlanUpgradeRequest(
                        instance_id=self.instance_id,
                        reason=(
                            "memory knobs at cap with evenly spread query "
                            "classes; tuning cannot stop the throttles"
                        ),
                        time_s=throttle.time_s,
                        entropy=self.filter.last_entropy or 0.0,
                    )
                )
            elif not at_cap:
                # §3.1's first bullet: repeated throttles from knobs that
                # already sit at their cap "can easily be captured by
                # rule-based engine and throttles can be filtered" — a
                # tuning request cannot raise a capped knob any further,
                # so only knobs with room left throttle.
                report.throttles.append(throttle)
        else:
            self.filter.record_quiet_window()
            # The class histogram describes the current throttle streak;
            # a quiet window ends the streak, so the stats restart with it.
            self.histogram.reset()

        buffer_throttle = self._gauge_buffer(db, result)
        if buffer_throttle is not None:
            report.throttles.append(buffer_throttle)
        return report

    # -- internals ----------------------------------------------------------------

    def _observe(self, rows: QueryRows) -> None:
        """Keep each template's last row of *rows* as its example; offer
        templates never seen before to the reservoir, in the order they
        first appear among the rows."""
        latest: dict[str, int] = {}
        for family, _first, last in rows.appearances():
            template = rows.families[family].log_template
            latest[template] = max(latest.get(template, last), last)
        for template, row in latest.items():
            if template not in self._examples:
                self.reservoir.observe(template)
            self._examples[template] = (rows, row)

    def _select_templates(self) -> list[tuple[QueryRows, int]]:
        """The reservoir's templates, as their latest example rows."""
        return [self._examples[template] for template in self.reservoir.sample]

    def _spills(self, db: SimulatedDatabase) -> set[str]:
        """The categories spilled under the live config.

        A template spills in a category when its example row's demand
        there exceeds the knobs' allowance: the comparison EXPLAIN's disk
        flags make, read straight from the row's footprint columns.
        """
        sort_allowance, maint_allowance, temp_allowance = db.working_area_allowances()
        spilled: set[str] = set()
        for rows, row in self._select_templates():
            sort_mb, maintenance_mb, temp_mb, _, _ = rows.footprints[row].tolist()
            if sort_mb > sort_allowance:
                spilled.add("sort")
            if maintenance_mb > maint_allowance:
                spilled.add("maintenance")
            if temp_mb > temp_allowance:
                spilled.add("temp")
        return spilled

    @staticmethod
    def _knobs_for(db: SimulatedDatabase, category: str) -> tuple[str, ...]:
        knobs = working_area_knobs(db.flavor)
        return {
            "sort": knobs.sort,
            "maintenance": knobs.maintenance,
            "temp": knobs.temp,
        }[category]

    @staticmethod
    def _knobs_at_cap(db: SimulatedDatabase, names: set[str]) -> bool:
        """Whether the memory knobs have no room left to grow.

        True when either every implicated knob sits at its catalog
        maximum, or the working-area allocation has consumed the VM
        budget left after the buffer pool — the §3.1 situation where
        "increasing working memory continuously with each recommendation
        ... decreasing other knobs (to make room)" has run its course and
        "the underlying instance configuration limit is in-sufficient".
        """
        config = db.config
        at_catalog_max = all(
            config[name] >= _CAP_FRACTION * db.catalog.get(name).max_value
            for name in names
        )
        if at_catalog_max:
            return True
        # Compare against the budget actually reachable by reload-time
        # repair (the same headroom fitted_to_budget keeps).
        budget_left = (
            BUDGET_HEADROOM * db.vm.db_memory_limit_mb
            - config.buffer_pool_mb()
            - config._restart_memory_mb()
        )
        working_charge = config.working_area_mb() * effective_sessions(
            db.active_connections
        )
        return working_charge >= 0.9 * budget_left

    def _gauge_buffer(
        self, db: SimulatedDatabase, result: ExecutionResult
    ) -> Throttle | None:
        """Working-page-set gauging for the non-tunable buffer knob.

        Fires only under read pressure: an undersized pool hurts through
        buffer misses, so a write-dominated window (bulk ingest) does not
        implicate the buffer even when the working set exceeds it.
        """
        working_set_mb = db.data_size_gb * 1024.0 * HOT_FRACTION
        buffer_mb = db.config.buffer_pool_mb()
        undersized = working_set_mb > _BUFFER_UNDERSIZE_FACTOR * buffer_mb
        read_pressure = result.batch.write_fraction <= _GAUGE_WRITE_FRACTION_MAX
        if not (undersized and read_pressure and result.hit_ratio < _BUFFER_HIT_THRESHOLD):
            return None
        return Throttle(
            instance_id=self.instance_id,
            workload_id=result.batch.workload_name,
            knob_class=KnobClass.MEMORY,
            knobs=(db.config.catalog.buffer_pool_name,),
            reason=(
                f"working set ~{working_set_mb:.0f} MB vs buffer pool "
                f"{buffer_mb:.0f} MB (hit ratio {result.hit_ratio:.2f})"
            ),
            time_s=result.start_time_s + result.duration_s,
            requires_restart=True,
        )
