"""The TDE's columnar scoring against its per-query reference.

The planner detector scores every configuration from plan columns
(:class:`~repro.dbsim.planner.PlanColumns`) and the memory detector
checks spills from footprint columns; ``tests/reference.py`` keeps the
forms that EXPLAIN one :class:`~repro.workloads.query.Query` at a time.
These properties hold them equal, ``==`` on the floats:

- the mean plan cost of random reservoirs (families of mixed planner
  sensitivity and parallel fraction, jittered footprints, 1–48 rows)
  under a random configuration and a perturbation of each async/planner
  knob, the worker-count knob included, through the memoised and the
  what-if path;
- the probe's profits, automaton histories and generator states;
- the spilled categories of the memory detector's templates;
- the automaton's lean draw against ``rng.choice``: the same actions and
  the same generator state after them;
- the bgwriter detector's mean write latency outside vacuum slots.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tde.bgwriter_detector import (
    _VACUUM_EXCLUSION_S,
    BgwriterThrottleDetector,
)
from repro.core.tde.mdp import LearningAutomaton
from repro.core.tde.memory_detector import MemoryThrottleDetector
from repro.core.tde.planner_detector import PlannerThrottleDetector
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.engine import SimulatedDatabase
from repro.dbsim.knobs import KnobClass, KnobDef, KnobUnit, catalog_for
from repro.dbsim.planner import PlanColumns
from repro.workloads.query import (
    QueryFamily,
    QueryFootprint,
    QueryRows,
    QueryType,
    jitter_columns,
)
from tests.reference import (
    choose_action_by_choice,
    latency_excluding_vacuum_by_mask,
    mean_cost_per_query,
    plan_columns_of_rows,
    probe_per_query,
    spills_per_query,
)

_FLAVORS = st.sampled_from(["postgres", "mysql"])
_PLANNERS = st.sampled_from(["generic", "tpcc", "production"])
#: Shared values make families share a multiplier key; any float in
#: range makes them differ.
_SENSITIVITY = st.one_of(st.sampled_from([0.0, 0.4, 1.0]), st.floats(0.0, 1.0))
_PARALLEL = st.one_of(st.sampled_from([0.0, 0.6, 0.9]), st.floats(0.0, 1.0))


@st.composite
def _families(draw, allowances: tuple[float, ...] = ()) -> tuple[QueryFamily, ...]:
    """1–6 families; working-area demands are none, one of *allowances*
    (a demand equal to its allowance fits) or anything in range."""
    demand_mb = st.one_of(
        st.just(0.0),
        st.sampled_from((1.0, *allowances)),
        st.floats(0.01, 8192.0),
    )
    n = draw(st.integers(min_value=1, max_value=6))
    families = []
    for k in range(n):
        # Families may share a template (same table, other literals).
        table = draw(st.integers(min_value=0, max_value=n - 1))
        families.append(
            QueryFamily(
                f"f{k}",
                draw(st.sampled_from(list(QueryType))),
                f"SELECT * FROM t{table} WHERE k = {k}",
                1.0,
                QueryFootprint(
                    rows_examined=draw(st.integers(1, 10**7)),
                    sort_mb=draw(demand_mb),
                    maintenance_mb=draw(demand_mb),
                    temp_mb=draw(demand_mb),
                    read_kb=draw(st.floats(0.0, 1e5)),
                    write_kb=draw(st.floats(0.0, 1e3)),
                    parallel_fraction=draw(_PARALLEL),
                    planner_sensitivity=draw(_SENSITIVITY),
                ),
            )
        )
    return tuple(families)


@st.composite
def _rows(draw, families: tuple[QueryFamily, ...]) -> QueryRows:
    """1–48 log rows of *families*, footprints theirs or jittered around them."""
    index = np.array(
        draw(
            st.lists(
                st.integers(0, len(families) - 1), min_size=1, max_size=48
            )
        ),
        dtype=np.intp,
    )
    base = np.array([families[k].footprint.columns for k in index.tolist()])
    if draw(st.booleans()):
        return QueryRows(families, index, base)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return QueryRows(families, index, jitter_columns(base, rng))


@st.composite
def _config(draw, flavor: str) -> KnobConfiguration:
    catalog = catalog_for(flavor)
    fractions = draw(
        st.lists(
            st.floats(0.0, 1.0), min_size=len(catalog), max_size=len(catalog)
        )
    )
    return KnobConfiguration(
        catalog,
        {
            k.name: k.min_value + f * (k.max_value - k.min_value)
            for k, f in zip(catalog, fractions)
        },
    )


def _perturbations(draw, config: KnobConfiguration) -> list[KnobConfiguration]:
    """*config* with each async/planner knob moved to a drawn value."""
    out = []
    for knob in config.catalog.by_class(KnobClass.ASYNC_PLANNER):
        f = draw(st.floats(0.0, 1.0))
        value = knob.min_value + f * (knob.max_value - knob.min_value)
        out.append(config.with_values({knob.name: value}))
    return out


def _database(draw) -> SimulatedDatabase:
    flavor = draw(_FLAVORS)
    db = SimulatedDatabase(flavor, draw(st.sampled_from(["m4.large", "m4.xlarge"])))
    db._use_planner(draw(_PLANNERS))
    db.config = draw(_config(flavor))
    return db


class TestPlanCostMatchesPerQuery:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mean_cost_bit_equal(self, data):
        db = _database(data.draw)
        rows = data.draw(_rows(data.draw(_families())))
        queries = list(rows)
        by_rows = plan_columns_of_rows(rows)
        by_queries = PlanColumns.of_queries(queries)
        for config in [db.config, *_perturbations(data.draw, db.config)]:
            # What-if first: the reference's EXPLAINs then memoise the
            # configuration, and the memoised path is scored after it.
            fresh = db.plan_cost(by_rows, config)
            expected = mean_cost_per_query(db, queries, config)
            assert fresh == expected
            assert db.plan_cost(by_rows, config) == expected
            assert db.plan_cost(by_queries, config) == expected


class TestProbeMatchesPerQuery:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16), rounds=st.integers(1, 4))
    def test_profits_histories_and_streams(self, data, seed, rounds):
        db = _database(data.draw)
        families = data.draw(_families())
        detector = PlannerThrottleDetector.for_database("svc", db, seed=seed)
        twin = PlannerThrottleDetector.for_database("svc", db, seed=seed)
        for _ in range(rounds):
            rows = data.draw(_rows(families))
            detector.observe_rows(rows)
            twin.observe_rows(rows)
            profits = detector.probe(db, detector.reservoir_columns())
            assert profits == probe_per_query(twin, db, twin.reservoir.sample)
        for name, automaton in detector.automata.items():
            other = twin.automata[name]
            assert automaton._p == other._p
            assert automaton._rng.bit_generator.state == other._rng.bit_generator.state


class TestSpillsMatchPerQuery:
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        capacity=st.integers(1, 8),
        windows=st.integers(1, 3),
    )
    def test_categories_equal(self, data, capacity, windows):
        db = _database(data.draw)
        families = data.draw(_families(db.working_area_allowances()))
        detector = MemoryThrottleDetector("svc", reservoir_capacity=capacity)
        for _ in range(windows):
            detector._observe(data.draw(_rows(families)))
            assert detector._spills(db) == spills_per_query(detector, db)


def _knob() -> KnobDef:
    return KnobDef("k", KnobClass.ASYNC_PLANNER, KnobUnit.COST, 5.0, 0.0, 10.0)


class TestAutomatonDrawMatchesChoice:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p_increase=st.floats(0.0, 1.0),
        ulps=st.integers(-4, 4),
        rewards=st.lists(st.booleans(), min_size=1, max_size=40),
    )
    def test_actions_and_stream(self, seed, p_increase, ulps, rewards):
        # The pair sums to 1.0 only up to a few ulps, as L_RP updates leave it.
        p_decrease = 1.0 - p_increase
        toward = np.inf if ulps > 0 else -np.inf
        for _ in range(abs(ulps)):
            p_decrease = float(np.nextafter(p_decrease, toward))
        p_decrease = min(max(p_decrease, 0.0), 1.0)
        lean = LearningAutomaton(_knob(), seed=seed)
        reference = LearningAutomaton(_knob(), seed=seed)
        for automaton in (lean, reference):
            automaton._p = {"increase": p_increase, "decrease": p_decrease}
        for rewarded in rewards:
            action = lean.choose_action()
            assert action == choose_action_by_choice(reference)
            lean.update(action, rewarded)
            reference.update(action, rewarded)
        assert lean._p == reference._p
        assert lean._rng.bit_generator.state == reference._rng.bit_generator.state


class TestVacuumExclusionMatchesMask:
    @settings(max_examples=200, deadline=None)
    @given(
        start=st.integers(0, 10**6),
        values=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=400),
        # Vacuum rounds fall on whole seconds, as the scheduler emits
        # them, or anywhere near the window.
        offsets=st.lists(
            st.one_of(st.integers(-5, 405).map(float), st.floats(-5.0, 405.0)),
            max_size=6,
        ),
    )
    def test_mean_latency_equal(self, start, values, offsets):
        vacuum_times = [start + o for o in offsets]
        result = SimpleNamespace(
            start_time_s=float(start),
            data_disk=SimpleNamespace(write_latency=np.array(values)),
            writeback=SimpleNamespace(vacuum_times=vacuum_times),
        )
        assert BgwriterThrottleDetector._latency_excluding_vacuum(
            result
        ) == latency_excluding_vacuum_by_mask(result, _VACUUM_EXCLUSION_S)
