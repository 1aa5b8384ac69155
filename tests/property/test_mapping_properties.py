"""Property-based tests (hypothesis) on the workload mapping's binning.

The mapping bins every metric into deciles over the whole repository.
Both steps are vectorised, and both must reproduce the numpy calls they
replace exactly, since the mapped workload feeds every OtterTune fit:

- **edges** — the deciles taken from one ``np.sort`` equal
  ``np.quantile(rows, q, axis=0)`` (``np.array_equal``) for any row count
  n >= 2, with tied values, repeated rows and magnitudes from 1e-3 to 1e3;
- **bins** — the one broadcast compare equals ``np.searchsorted`` per
  column (``side='left'``), including values that sit exactly on an edge
  and repeated edges;
- **exactness** — two mappers sharing one repository's cache map exactly
  what a mapper with no cached state maps over a copy of it, after any
  interleaving of adds and maps, for targets below and above the
  mapping window;
- **blocked score** — the score formed in row blocks of one buffer equals
  the one-expression score of ``tests/reference.py`` (``==``), and so do
  the mappings, for either ``exclude_target``: target and candidate sizes
  1–520 across the 64-row block edges and the 500-row mapping window,
  exact-duplicate and 1-ulp-apart configs, and the target scored against
  itself.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim import postgres_catalog
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.metrics import MetricsDelta
from repro.tuners import TrainingSample, WorkloadRepository
from repro.tuners.repository import WorkloadDataset
from repro.tuners.workload_mapping import MAPPING_WINDOW, WorkloadMapper
from tests.reference import OneExpressionMapper


class _Rows:
    """The two repository members the edge computation reads."""

    def __init__(self, rows: np.ndarray) -> None:
        self.derived_cache: dict = {}
        self._rows = rows

    def all_metric_rows(self) -> np.ndarray:
        return self._rows


_magnitudes = st.floats(min_value=1e-3, max_value=1e3)
_values = st.builds(lambda v, neg: -v if neg else v, _magnitudes, st.booleans())


@st.composite
def _metric_rows(draw) -> np.ndarray:
    """An (n, m) matrix whose entries come from a small pool (ties), with
    some rows repeated."""
    n = draw(st.integers(min_value=2, max_value=60))
    m = draw(st.integers(min_value=1, max_value=5))
    pool = draw(st.lists(_values, min_size=1, max_size=8))
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=n * m,
            max_size=n * m,
        )
    )
    rows = np.asarray(pool)[picks].reshape(n, m)
    order = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)
    )
    return rows[order]


class TestDecileEdges:
    @settings(max_examples=300, deadline=None)
    @given(rows=_metric_rows(), n_bins=st.integers(min_value=2, max_value=12))
    def test_edges_equal_np_quantile(self, rows, n_bins):
        edges = WorkloadMapper(_Rows(rows), n_bins)._compute_edges()
        quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
        assert np.array_equal(edges, np.quantile(rows, quantiles, axis=0))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=400),
        scale=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_edges_equal_np_quantile_on_continuous_rows(self, seed, n, scale):
        rows = np.random.default_rng(seed).lognormal(size=(n, 4)) * 10.0**scale
        edges = WorkloadMapper(_Rows(rows))._compute_edges()
        quantiles = np.linspace(0.0, 1.0, 11)[1:-1]
        assert np.array_equal(edges, np.quantile(rows, quantiles, axis=0))


class TestBinning:
    @settings(max_examples=300, deadline=None)
    @given(edge_rows=_metric_rows(), data=st.data())
    def test_binning_equals_per_column_searchsorted(self, edge_rows, data):
        edges = np.sort(edge_rows, axis=0)  # repeated edges from the ties
        m = edges.shape[1]
        # Metric values: on an edge, or anywhere in the value range.
        on_edge = st.sampled_from(sorted(set(edges.ravel().tolist())))
        k = data.draw(st.integers(min_value=1, max_value=20))
        metrics = np.asarray(
            data.draw(
                st.lists(
                    st.one_of(on_edge, _values),
                    min_size=k * m,
                    max_size=k * m,
                )
            )
        ).reshape(k, m)
        mapper = WorkloadMapper(_Rows(edge_rows))
        binned = mapper._binned(metrics, edges)
        reference = np.column_stack(
            [np.searchsorted(edges[:, c], metrics[:, c]) for c in range(m)]
        )
        assert np.array_equal(binned, reference)


_CATALOG = postgres_catalog()
_WORKLOADS = ("target", "near", "far")


def _sample(wid: str, work_mem: float, tps: float) -> TrainingSample:
    metrics = {"throughput_tps": tps, "wal_mb": tps * 3.0, "blks_read": tps * 10.0}
    return TrainingSample(
        wid,
        KnobConfiguration(_CATALOG, {"work_mem": work_mem}),
        MetricsDelta(metrics),
    )


_adds = st.tuples(
    st.just("add"),
    st.sampled_from(_WORKLOADS),
    st.floats(min_value=4.0, max_value=512.0),
    st.floats(min_value=50.0, max_value=9000.0),
)
_maps = st.tuples(
    st.just("map"), st.integers(min_value=0, max_value=1), st.booleans()
)


class TestExactMapping:
    @settings(max_examples=20, deadline=None)
    @given(
        target_size=st.one_of(
            st.integers(min_value=1, max_value=40),
            st.integers(min_value=MAPPING_WINDOW - 20, max_value=MAPPING_WINDOW + 60),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        ops=st.lists(st.one_of(_adds, _maps), min_size=1, max_size=12),
    )
    def test_shared_mappers_map_what_a_fresh_mapper_maps(
        self, target_size, seed, ops
    ):
        rng = np.random.default_rng(seed)
        repo = WorkloadRepository()
        for _ in range(target_size):
            repo.add(_sample("target", 256.0, 100.0 + rng.normal()))
        repo.add(_sample("near", 200.0, 120.0))
        mappers = (WorkloadMapper(repo), WorkloadMapper(repo))
        for op in ops:
            if op[0] == "add":
                repo.add(_sample(*op[1:]))
                continue
            _, which, exclude = op
            copy = pickle.loads(pickle.dumps(repo))
            copy.derived_cache.clear()
            for wid in _WORKLOADS:
                expected = WorkloadMapper(copy).map_workload(wid, exclude)
                assert mappers[which].map_workload(wid, exclude) == expected


#: Sizes on and beside the 64-row block edges and the mapping window.
_EDGE_SIZES = [1, 2, 63, 64, 65, 127, 128, 129, 499, 500, 501, 512, 520]
_SIZES = st.one_of(st.sampled_from(_EDGE_SIZES), st.integers(1, 520))


def _configs_with_near_twins(rng, n: int, pool: np.ndarray) -> np.ndarray:
    """*n* configs in [0, 1]^d, some copied exactly from *pool* and some
    1 ulp from a copy."""
    configs = rng.uniform(size=(n, pool.shape[1]))
    picks = rng.integers(0, len(pool), size=n)
    kind = rng.integers(0, 3, size=n)  # 0 fresh, 1 duplicate, 2 one ulp off
    configs[kind > 0] = pool[picks[kind > 0]]
    off = kind == 2
    configs[off] = np.nextafter(configs[off], 2.0)
    return configs


class TestBlockedScore:
    @settings(max_examples=60, deadline=None)
    @given(
        target_size=_SIZES,
        candidate_size=_SIZES,
        seed=st.integers(0, 2**32 - 1),
        self_score=st.booleans(),
    )
    def test_blocked_score_equals_one_expression(
        self, target_size, candidate_size, seed, self_score
    ):
        rng = np.random.default_rng(seed)
        d, m = 14, 25
        target_configs = rng.uniform(size=(target_size, d))
        target = WorkloadDataset(
            "target",
            target_configs,
            rng.lognormal(size=(target_size, m)),
            rng.uniform(size=target_size),
        )
        if self_score:
            candidate = target
        else:
            candidate = WorkloadDataset(
                "candidate",
                _configs_with_near_twins(rng, candidate_size, target_configs),
                rng.lognormal(size=(candidate_size, m)),
                rng.uniform(size=candidate_size),
            )
        rows = np.vstack([target.metrics, candidate.metrics])
        lean, reference = WorkloadMapper(_Rows(rows)), OneExpressionMapper(_Rows(rows))
        edges = lean._compute_edges()
        binned = lean._binned(target.metrics, edges)
        assert lean._score(target, binned, candidate, edges) == reference._score(
            target, binned, candidate, edges
        )

    @settings(max_examples=15, deadline=None)
    @given(
        sizes=st.tuples(_SIZES, _SIZES, _SIZES),
        seed=st.integers(0, 2**32 - 1),
        exclude=st.booleans(),
    )
    def test_blocked_mapping_equals_one_expression(self, sizes, seed, exclude):
        rng = np.random.default_rng(seed)
        names = _CATALOG.names()
        repo = WorkloadRepository()
        pool = rng.uniform(size=(8, len(names)))
        for wid, size in zip(_WORKLOADS, sizes):
            units = _configs_with_near_twins(rng, size, pool)
            for unit, tps in zip(units, rng.uniform(50.0, 9000.0, size=size)):
                values = {
                    knob.name: knob.min_value + u * (knob.max_value - knob.min_value)
                    for knob, u in zip(_CATALOG, unit.tolist())
                }
                repo.add(
                    TrainingSample(
                        wid,
                        KnobConfiguration(_CATALOG, values),
                        MetricsDelta(
                            {
                                "throughput_tps": tps,
                                "wal_mb": tps * rng.uniform(1.0, 3.0),
                                "blks_read": float(rng.integers(0, 4)),
                            }
                        ),
                    )
                )
        copy = pickle.loads(pickle.dumps(repo))
        copy.derived_cache.clear()
        for wid in _WORKLOADS:
            assert WorkloadMapper(repo).map_workload(
                wid, exclude
            ) == OneExpressionMapper(copy).map_workload(wid, exclude)
