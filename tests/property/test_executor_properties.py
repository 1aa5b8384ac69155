"""Property: a batch's cost reads its spill from the window's report.

:func:`~repro.dbsim.executor.run_batch` takes each family's spill volume
from the window's :class:`~repro.dbsim.memory.SpillReport` (the engine
builds one per window with ``compute_spills``) instead of walking the
working-area knobs again, and memoises nothing across windows. For any
flavor, working-area configuration, family mix and dynamic terms (hit
ratio, commit latency, data-disk inflation, swap) its summary must equal
the reference that recomputes every family's spill through the
epoch-keyed memo (``tests/reference.py``), bit for bit, on a memo miss
and on a memo hit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hardware import vm_type
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.executor import run_batch
from repro.dbsim.knobs import catalog_for
from repro.dbsim.memory import compute_spills, working_area_knobs
from repro.dbsim.planner import PlannerModel
from repro.workloads.generator import WorkloadBatch
from repro.workloads.query import QueryFamily, QueryFootprint, QueryType

from tests.reference import ServiceTimeMemo, run_batch_memoised

_VMS = ("m4.large", "m4.xlarge", "t2.large", "t3.xlarge")

#: Demand per category as a multiple of its allowance: 0 demands none,
#: below 1 fits in memory, above 1 spills.
demand_ratios = st.tuples(*[st.floats(min_value=0.0, max_value=3.0)] * 3)

families = st.lists(
    st.tuples(
        demand_ratios,
        st.integers(min_value=0, max_value=5_000),  # executions
        st.integers(min_value=1, max_value=100_000),  # rows examined
        st.floats(min_value=0.0, max_value=5_000.0),  # read_kb
        st.sampled_from((0.0, 8.0, 64.0)),  # write_kb
        st.floats(min_value=0.0, max_value=1.0),  # parallel fraction
        st.floats(min_value=0.0, max_value=1.0),  # planner sensitivity
    ),
    min_size=0,
    max_size=5,
)


def _config(catalog, knob_fractions):
    knobs = working_area_knobs(catalog.flavor)
    names = knobs.sort + knobs.maintenance + knobs.temp
    values = {}
    for name, u in zip(names, knob_fractions):
        knob = catalog.get(name)
        values[name] = knob.min_value + u * (knob.max_value - knob.min_value)
    return KnobConfiguration(catalog, values)


def _allowances(config):
    knobs = working_area_knobs(config.catalog.flavor)
    return tuple(
        sum(config[n] for n in names)
        for names in (knobs.sort, knobs.maintenance, knobs.temp)
    )


def _batch(config, drawn):
    """A batch with one always-spilling and one never-spilling family."""
    allowance = _allowances(config)
    rows = [((2.0, 0.0, 1.5), 40, 5_000, 800.0, 0.0, 0.0, 0.0)]
    rows.append(((0.0, 0.0, 0.0), 900, 10, 8.0, 8.0, 0.0, 0.0))
    rows.extend(drawn)
    counts, fams = {}, {}
    for i, (ratios, count, examined, read_kb, write_kb, par, sens) in enumerate(rows):
        sort_mb, maint_mb, temp_mb = (r * a for r, a in zip(ratios, allowance))
        name = f"f{i}"
        counts[name] = count
        fams[name] = QueryFamily(
            name=name,
            query_type=QueryType.UPDATE if write_kb > 0.0 else QueryType.SELECT,
            template="SELECT 1",
            weight=1.0,
            footprint=QueryFootprint(
                rows_examined=examined,
                sort_mb=sort_mb,
                maintenance_mb=maint_mb,
                temp_mb=temp_mb,
                read_kb=read_kb,
                write_kb=write_kb,
                parallel_fraction=par,
                planner_sensitivity=sens,
            ),
        )
    return WorkloadBatch("w", 60.0, sum(counts.values()) / 60.0, counts, fams)


class TestRunBatchMatchesMemoisedReference:
    @given(
        flavor=st.sampled_from(("postgres", "mysql")),
        vm_name=st.sampled_from(_VMS),
        knob_fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5
        ),
        drawn=families,
        hit_ratio=st.floats(min_value=0.0, max_value=0.98),
        commit_latency_ms=st.floats(min_value=0.05, max_value=80.0),
        data_latency_factor=st.floats(min_value=1.0, max_value=6.0),
        swap=st.sampled_from((1.0, 1.3, 4.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_on_miss_and_hit(
        self,
        flavor,
        vm_name,
        knob_fractions,
        drawn,
        hit_ratio,
        commit_latency_ms,
        data_latency_factor,
        swap,
    ):
        catalog = catalog_for(flavor)
        config = _config(catalog, knob_fractions)
        vm = vm_type(vm_name)
        batch = _batch(config, drawn)
        spill = compute_spills(batch, config)
        assert "f0" in spill.spilled_families
        assert "f1" not in spill.spilled_families

        dynamic = (commit_latency_ms, data_latency_factor, swap)
        summary = run_batch(
            batch,
            config,
            vm,
            hit_ratio,
            PlannerModel(flavor, "w", vm),
            spill,
            *dynamic,
        )
        memo = ServiceTimeMemo()
        planner = PlannerModel(flavor, "w", vm)
        miss = run_batch_memoised(batch, config, vm, hit_ratio, planner, *dynamic, memo)
        hit = run_batch_memoised(batch, config, vm, hit_ratio, planner, *dynamic, memo)
        assert memo.hits == memo.misses
        assert summary == miss == hit
