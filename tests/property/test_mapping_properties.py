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
  mapping window.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim import postgres_catalog
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.metrics import MetricsDelta
from repro.tuners import TrainingSample, WorkloadRepository
from repro.tuners.workload_mapping import MAPPING_WINDOW, WorkloadMapper


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
