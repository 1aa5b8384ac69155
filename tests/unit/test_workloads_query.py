"""Unit tests for the query model."""

import numpy as np
import pytest

from repro.workloads.query import (
    Query,
    QueryFamily,
    QueryFootprint,
    QueryType,
    jitter_columns,
)


class TestQueryType:
    def test_writes(self):
        assert QueryType.INSERT.is_write
        assert QueryType.UPDATE.is_write
        assert QueryType.INDEX_CREATE.is_write
        assert not QueryType.SELECT.is_write
        assert not QueryType.AGGREGATE.is_write


class TestQueryFootprint:
    def test_defaults_valid(self):
        fp = QueryFootprint()
        assert fp.sort_mb == 0.0
        assert fp.read_kb == 4.0

    def test_negative_resource_rejected(self):
        with pytest.raises(ValueError):
            QueryFootprint(sort_mb=-1.0)

    def test_parallel_fraction_bounds(self):
        with pytest.raises(ValueError):
            QueryFootprint(parallel_fraction=1.5)

    def test_planner_sensitivity_bounds(self):
        with pytest.raises(ValueError):
            QueryFootprint(planner_sensitivity=-0.1)

    def test_jittered_within_relative_bounds(self):
        fp = QueryFootprint(sort_mb=100.0, read_kb=1000.0)
        rows = jitter_columns(np.array([fp.columns] * 20), np.random.default_rng(0))
        for sort_mb, _maint, _temp, read_kb, _write in rows.tolist():
            assert 85.0 <= sort_mb <= 115.0
            assert 850.0 <= read_kb <= 1150.0

    def test_jittered_keeps_zero_at_zero(self):
        fp = QueryFootprint(sort_mb=0.0)
        rows = jitter_columns(np.array([fp.columns]), np.random.default_rng(0))
        assert rows[0, 0] == 0.0


class TestQueryFamily:
    def _family(self):
        return QueryFamily(
            name="f",
            query_type=QueryType.SELECT,
            template="SELECT * FROM t WHERE id = %s",
            weight=1.0,
            footprint=QueryFootprint(),
            param_spec=("int",),
        )

    def test_instantiate_substitutes_params(self):
        q = self._family().instantiate(QueryFootprint())
        assert "%s" not in q.text
        assert q.text == "SELECT * FROM t WHERE id = ?"

    def test_instantiate_is_query(self):
        q = self._family().instantiate(QueryFootprint())
        assert isinstance(q, Query)
        assert not q.query_type.is_write

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            QueryFamily("f", QueryType.SELECT, "q", -1.0, QueryFootprint())

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            QueryFamily("", QueryType.SELECT, "q", 1.0, QueryFootprint())

    def test_unknown_param_kind_rejected(self):
        with pytest.raises(ValueError, match="param kind"):
            QueryFamily(
                "f", QueryType.SELECT, "q %s", 1.0, QueryFootprint(), ("datetime",)
            )
