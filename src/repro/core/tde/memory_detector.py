"""Memory-knob throttle detection (§3.1).

Per window the detector:

1. feeds the streaming-log sample through query templating and reservoir
   sampling to pick a tractable set of query templates — per-template
   counts from the sample's per-family counts, reservoir entry in the
   order templates first appear, query classes from the footprint
   columns;
2. EXPLAINs the latest example of each selected template against the
   live database (the simulator's EXPLAIN reads the statement's
   footprint, not its parameters); any plan that spills a working area
   to disk means the corresponding memory knob is too small → throttle;
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
from repro.dbsim.engine import ExecutionResult, SimulatedDatabase
from repro.dbsim.knobs import KnobClass
from repro.dbsim.memory import HOT_FRACTION, working_area_knobs
from repro.workloads.query import Query, QueryRows
from repro.workloads.sampling import ReservoirSampler
from repro.workloads.templating import TemplateCatalog

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
    examined_templates: int = 0
    spilled_categories: set[str] = field(default_factory=set)
    filtered_at_cap: int = 0


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
        self.templates = TemplateCatalog()
        # §3.1 reservoir-samples *templates* from the pool extracted from
        # the streaming log: a template enters the reservoir once, when
        # first seen, so rare-but-heavy statements are examined with the
        # same probability as frequent ones.
        self.reservoir: ReservoirSampler[str] = ReservoirSampler(
            reservoir_capacity, seed=seed
        )
        self._seen_templates: set[str] = set()
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

        selected = self._select_templates()
        report.examined_templates = len(selected)
        spilled: set[str] = set()
        implicated: set[str] = set()
        for query in selected:
            plan = db.explain(query)
            for category in plan.spilled_categories():
                spilled.add(category)
                implicated.update(self._knobs_for(db, category))
        report.spilled_categories = spilled

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
            elif at_cap:
                # §3.1's first bullet: repeated throttles from knobs that
                # already sit at their cap "can easily be captured by
                # rule-based engine and throttles can be filtered" — a
                # tuning request cannot raise a capped knob any further.
                report.filtered_at_cap += 1
            else:
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
        for tid in self.templates.observe_rows(rows):
            if tid not in self._seen_templates:
                self._seen_templates.add(tid)
                self.reservoir.observe(tid)

    def _select_templates(self) -> list[Query]:
        """The reservoir's templates, as representative queries.

        Each template is examined via its latest example, built on read.
        """
        out: list[Query] = []
        for tid in self.reservoir.sample:
            example = self.templates.stats(tid).example
            if example is not None:
                out.append(example)
        return out

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
        from repro.dbsim.config import effective_sessions

        config = db.config
        at_catalog_max = all(
            config[name] >= _CAP_FRACTION * db.catalog.get(name).max_value
            for name in names
        )
        if at_catalog_max:
            return True
        # Compare against the budget actually reachable by reload-time
        # repair (the same 5% headroom fitted_to_budget keeps).
        budget_left = (
            0.95 * db.vm.db_memory_limit_mb
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
        buffer_name = (
            "shared_buffers" if db.flavor == "postgres" else "innodb_buffer_pool_size"
        )
        return Throttle(
            instance_id=self.instance_id,
            workload_id=result.batch.workload_name,
            knob_class=KnobClass.MEMORY,
            knobs=(buffer_name,),
            reason=(
                f"working set ~{working_set_mb:.0f} MB vs buffer pool "
                f"{buffer_mb:.0f} MB (hit ratio {result.hit_ratio:.2f})"
            ),
            time_s=result.start_time_s + result.duration_s,
            requires_restart=True,
        )
