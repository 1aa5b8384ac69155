"""Properties of the columnar query-log sample.

A window's sample is a :class:`~repro.workloads.query.QueryRows`: a
family index and the jittered footprint resources per row, and the row
count per family. The TDE and the engine read these columns directly; a
:class:`~repro.workloads.query.Query` is built only for a row something
indexes. These properties pin the columnar readers to the per-query
semantics they replace, over the rows materialised one by one:

- the memory detector's template counts, reservoir contents and order,
  class histogram and selected examples;
- the planner detector's reservoir of first-seen templates;
- the engine's ``planner_cost_mean`` (exactly the mean of per-row
  EXPLAIN costs);
- building rows draws nothing, and ``WorkloadBatch.scaled`` keeps the
  columns consistent.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hardware import vm_type
from repro.core.tde.entropy import QUERY_CLASSES, QueryClassHistogram
from repro.core.tde.memory_detector import MemoryThrottleDetector
from repro.core.tde.planner_detector import PlannerThrottleDetector
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.engine import SimulatedDatabase
from repro.dbsim.knobs import catalog_for
from repro.dbsim.planner import PlannerModel
from repro.workloads import (
    AdulteratedTPCCWorkload,
    CHBenchWorkload,
    MixWorkload,
    ProductionWorkload,
    TPCHWorkload,
)
from repro.workloads.query import (
    FOOTPRINT_COLUMNS,
    QueryFamily,
    QueryFootprint,
    QueryRows,
    QueryType,
)
from repro.workloads.sampling import ReservoirSampler
from repro.workloads.templating import make_template, template_id


def _shared_template_mix(seed: int, sample_size: int) -> MixWorkload:
    """Families whose texts differ only in literals share one template."""
    return MixWorkload(
        "shared",
        [
            QueryFamily(
                "by_one", QueryType.SELECT, "SELECT * FROM t WHERE k = 1", 3.0,
                QueryFootprint(sort_mb=0.8, read_kb=40.0),
            ),
            QueryFamily(
                "by_two", QueryType.SELECT, "SELECT * FROM t WHERE k = 2", 1.0,
                QueryFootprint(sort_mb=600.0, read_kb=900.0),
            ),
            QueryFamily(
                "rebuild", QueryType.INDEX_CREATE, "CREATE INDEX i_%s ON t (v)",
                0.5, QueryFootprint(maintenance_mb=400.0, write_kb=300.0),
                ("int",),
            ),
            QueryFamily(
                "staging", QueryType.TEMP_TABLE,
                "CREATE TEMP TABLE s AS SELECT v FROM t WHERE w > %s", 0.2,
                QueryFootprint(temp_mb=200.0, write_kb=50.0), ("float",),
            ),
        ],
        rps=40.0,
        data_size_gb=10.0,
        seed=seed,
        sample_size=sample_size,
    )


_WORKLOADS = {
    "adulterated": lambda seed, n: AdulteratedTPCCWorkload(
        0.5, rps=300.0, seed=seed, sample_size=n
    ),
    "tpch": lambda seed, n: TPCHWorkload(rps=4.0, seed=seed, sample_size=n),
    "chbench": lambda seed, n: CHBenchWorkload(rps=200.0, seed=seed, sample_size=n),
    "production": lambda seed, n: ProductionWorkload(seed=seed, sample_size=n),
    "shared": _shared_template_mix,
}

_workload_cases = st.tuples(
    st.sampled_from(sorted(_WORKLOADS)),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=80),
)


def _workload(case):
    name, seed, sample_size = case
    return _WORKLOADS[name](seed, sample_size)


def _scalar_class(footprint: QueryFootprint) -> str:
    """§3.1's query classes, one query at a time (the specification)."""
    if footprint.maintenance_mb > 0.0:
        return "maintenance_memory"
    if footprint.temp_mb > 0.0:
        return "temp_memory"
    if footprint.sort_mb >= 1.0:
        return "working_memory"
    if footprint.write_kb >= 8.0:
        return "write_heavy"
    return "point"


class _PerQueryMemory:
    """The memory detector's observation path, fed one query at a time."""

    def __init__(self, capacity: int, seed: int) -> None:
        self.counts: dict[str, int] = {}
        self.examples: dict = {}
        self.reservoir: ReservoirSampler[str] = ReservoirSampler(capacity, seed=seed)
        self.seen: set[str] = set()
        self.classes: Counter[str] = Counter()

    def observe(self, query, classify: bool) -> None:
        tid = template_id(make_template(query.text))
        self.counts[tid] = self.counts.get(tid, 0) + 1
        self.examples[tid] = query
        if tid not in self.seen:
            self.seen.add(tid)
            self.reservoir.observe(tid)
        if classify:
            self.classes[_scalar_class(query.footprint)] += 1


class TestMemoryObserveMatchesPerQuery:
    @settings(max_examples=30, deadline=None)
    @given(
        case=_workload_cases,
        capacity=st.integers(min_value=1, max_value=6),
        windows=st.integers(min_value=1, max_value=4),
    )
    def test_counts_reservoir_histogram_and_examples(self, case, capacity, windows):
        workload = _workload(case)
        seed = case[1]
        db = SimulatedDatabase("postgres", "m4.large", 10.0, seed=seed)
        detector = MemoryThrottleDetector("svc", reservoir_capacity=capacity, seed=seed)
        reference = _PerQueryMemory(capacity, seed)
        for _ in range(windows):
            result = db.run(workload.batch(60.0, start_time_s=db.clock_s))
            report = detector.inspect(db, result)
            for query in result.batch.sampled_queries:
                reference.observe(query, classify=True)
            for query in result.batch.family_examples:
                reference.observe(query, classify=False)
            catalog = detector.templates.templates()
            assert list(catalog) == list(reference.counts)
            assert {t: s.count for t, s in catalog.items()} == reference.counts
            assert detector.templates.total_observed == sum(reference.counts.values())
            assert detector.reservoir.sample == reference.reservoir.sample
            assert detector._select_templates() == [
                reference.examples[tid] for tid in reference.reservoir.sample
            ]
            if not report.spilled_categories:
                # A quiet window ends the streak the histogram describes.
                reference.classes.clear()
            assert detector.histogram.counts() == {
                cls: reference.classes.get(cls, 0) for cls in QUERY_CLASSES
            }


class TestPlannerObserveMatchesPerQuery:
    @settings(max_examples=30, deadline=None)
    @given(case=_workload_cases, windows=st.integers(min_value=1, max_value=4))
    def test_reservoir_of_first_seen_templates(self, case, windows):
        workload = _workload(case)
        db = SimulatedDatabase("postgres", "m4.large", 10.0, seed=1)
        detector = PlannerThrottleDetector.for_database("svc", db, seed=case[1])
        twin = PlannerThrottleDetector.for_database("svc", db, seed=case[1])
        for _ in range(windows):
            batch = workload.batch(60.0)
            for rows in (batch.sampled_queries, batch.family_examples):
                detector.observe_rows(rows)
                for query in rows:
                    template = make_template(query.text)
                    if template not in twin._seen_templates:
                        twin._seen_templates.add(template)
                        twin.reservoir.observe(query)
            assert detector.reservoir.sample == twin.reservoir.sample
            assert detector.reservoir.seen == twin.reservoir.seen


#: Per-column resource values on and around every class threshold
#: (FOOTPRINT_COLUMNS order: sort, maintenance, temp, read, write).
_RESOURCE_VALUES = (
    (0.0, 0.5, 1.0, 1.5, 300.0),
    (0.0, 0.5),
    (0.0, 0.5),
    (0.0, 4.0),
    (0.0, 7.5, 8.0, 8.5, 300.0),
)
_resource_rows = st.tuples(*(st.sampled_from(v) for v in _RESOURCE_VALUES))


@st.composite
def _hand_rows(draw):
    """Rows with resources on and around every class threshold."""
    n_families = draw(st.integers(min_value=1, max_value=5))
    families = tuple(
        QueryFamily(f"f{i}", QueryType.SELECT, f"SELECT {i}", 1.0, QueryFootprint())
        for i in range(n_families)
    )
    n = draw(st.integers(min_value=0, max_value=30))
    index = draw(
        st.lists(st.integers(0, n_families - 1), min_size=n, max_size=n)
    )
    columns = draw(st.lists(_resource_rows, min_size=n, max_size=n))
    return QueryRows(
        families,
        np.array(index, dtype=np.intp),
        np.array(columns, dtype=float).reshape(n, len(FOOTPRINT_COLUMNS)),
    )


class TestHistogramMatchesScalarClasses:
    @settings(max_examples=80, deadline=None)
    @given(rows=_hand_rows())
    def test_class_counts(self, rows):
        histogram = QueryClassHistogram()
        histogram.observe_rows(rows)
        expected = Counter(_scalar_class(q.footprint) for q in rows)
        assert histogram.counts() == {c: expected.get(c, 0) for c in QUERY_CLASSES}


@st.composite
def _configs(draw, flavor):
    catalog = catalog_for(flavor)
    fractions = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=len(catalog),
            max_size=len(catalog),
        )
    )
    return KnobConfiguration(
        catalog,
        {
            k.name: k.min_value + f * (k.max_value - k.min_value)
            for k, f in zip(catalog, fractions)
        },
    )


class TestPlanCostMatchesExplain:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), case=_workload_cases)
    def test_columnar_mean_equals_per_row_explain(self, data, case):
        flavor = data.draw(st.sampled_from(["postgres", "mysql"]))
        config = data.draw(_configs(flavor))
        workload = _workload(case)
        planner = PlannerModel(flavor, workload.name, vm_type("m4.xlarge"))
        rows = workload.batch(60.0).sampled_queries[:32]
        costs = [planner.explain(q, config).total_cost for q in rows]
        expected = float(np.mean(costs)) if costs else 0.0
        assert planner.mean_cost(rows, config) == expected


class TestBuildingRowsDrawsNothing:
    @settings(max_examples=40, deadline=None)
    @given(case=_workload_cases, data=st.data())
    def test_any_subset_in_any_order(self, case, data):
        built_side, plain_side = _workload(case), _workload(case)
        batch = built_side.batch(60.0)
        twin = plain_side.batch(60.0)
        assert batch == twin
        for rows, twin_rows in (
            (batch.sampled_queries, twin.sampled_queries),
            (batch.family_examples, twin.family_examples),
        ):
            if not len(rows):
                continue
            picks = data.draw(
                st.lists(st.integers(0, len(rows) - 1), max_size=2 * len(rows))
            )
            reference = list(twin_rows)
            for row in picks:
                assert rows[row] == reference[row]
        assert built_side.batch(60.0, 60.0) == plain_side.batch(60.0, 60.0)
        assert (
            built_side._rng.bit_generator.state == plain_side._rng.bit_generator.state
        )

    @settings(max_examples=20, deadline=None)
    @given(case=_workload_cases, other_size=st.integers(min_value=1, max_value=80))
    def test_arrivals_do_not_depend_on_the_sample(self, case, other_size):
        name, seed, _ = case
        one = _WORKLOADS[name](seed, case[2])
        other = _WORKLOADS[name](seed, other_size)
        for window in range(3):
            start = 60.0 * window
            assert one.batch(60.0, start).counts == other.batch(60.0, start).counts


class TestScaledKeepsColumns:
    @settings(max_examples=40, deadline=None)
    @given(case=_workload_cases, factor=st.floats(min_value=0.0, max_value=3.0))
    def test_scaled_rows_stay_consistent(self, case, factor):
        batch = _workload(case).batch(60.0)
        scaled = batch.scaled(factor)
        assert scaled.sampled_queries == batch.sampled_queries
        assert scaled.family_examples == batch.family_examples
        assert list(scaled.sampled_queries) == list(batch.sampled_queries)
        families = tuple(scaled.families.values())
        for rows in (scaled.sampled_queries, scaled.family_examples):
            assert rows.families == families
            assert rows.footprints.shape == (len(rows), len(FOOTPRINT_COLUMNS))
            assert not rows.family_index.flags.writeable
            assert not rows.footprints.flags.writeable
            assert np.array_equal(
                rows.counts, np.bincount(rows.family_index, minlength=len(families))
            )
        # Every logged statement's family executed in the batch, and each
        # executed family has exactly one example.
        executed = [i for i, c in enumerate(batch.counts.values()) if c > 0]
        assert scaled.family_examples.family_index.tolist() == executed
        assert set(scaled.sampled_queries.family_index.tolist()) <= set(executed)
