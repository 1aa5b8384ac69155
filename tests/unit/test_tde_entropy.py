"""Unit tests for normalized entropy, query classes and the filter."""

import math

import numpy as np
import pytest

from repro.core.tde.entropy import (
    QUERY_CLASSES,
    EntropyFilter,
    QueryClassHistogram,
    classify_footprints,
    normalized_entropy,
)
from repro.workloads.query import (
    Query,
    QueryFamily,
    QueryFootprint,
    QueryRows,
    QueryType,
)


def _query(**fp_kwargs):
    return Query(QueryType.SELECT, "q", QueryFootprint(**fp_kwargs))


def _classify(query):
    """The query class of one query, by the columnar classifier."""
    return QUERY_CLASSES[int(classify_footprints(np.array([query.footprint.columns]))[0])]


def _counts(histogram):
    return dict(zip(QUERY_CLASSES, histogram._counts.tolist()))


def _rows(*queries):
    """Columnar log rows holding *queries*, each its own family."""
    families = tuple(
        QueryFamily(f"f{i}", q.query_type, q.text, 1.0, q.footprint)
        for i, q in enumerate(queries)
    )
    return QueryRows(
        families,
        np.arange(len(queries)),
        np.array([q.footprint.columns for q in queries]),
    )


class TestNormalizedEntropy:
    def test_uniform_is_one(self):
        assert normalized_entropy([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_class_is_zero(self):
        assert normalized_entropy([10]) == 0.0

    def test_empty_is_zero(self):
        assert normalized_entropy([]) == 0.0

    def test_all_zero_counts_is_zero(self):
        assert normalized_entropy([0, 0, 0]) == 0.0

    def test_skew_lowers_entropy(self):
        assert normalized_entropy([100, 1, 1]) < normalized_entropy([34, 33, 33])

    def test_zero_counts_ignored(self):
        assert normalized_entropy([5, 5, 0]) == pytest.approx(1.0)

    def test_matches_shannon_formula(self):
        counts = [3, 7]
        p = [3 / 10, 7 / 10]
        h = -sum(pi * math.log(pi) for pi in p) / math.log(2)
        assert normalized_entropy(counts) == pytest.approx(h)

    def test_bounded(self):
        assert 0.0 <= normalized_entropy([1, 2, 3, 4, 50]) <= 1.0


class TestClassifyQuery:
    def test_maintenance_wins(self):
        q = _query(maintenance_mb=10.0, sort_mb=50.0)
        assert _classify(q) == "maintenance_memory"

    def test_temp(self):
        assert _classify(_query(temp_mb=5.0)) == "temp_memory"

    def test_sort(self):
        assert _classify(_query(sort_mb=10.0)) == "working_memory"

    def test_small_sort_is_point(self):
        assert _classify(_query(sort_mb=0.2)) == "point"

    def test_write_heavy(self):
        assert _classify(_query(write_kb=100.0)) == "write_heavy"

    def test_point(self):
        assert _classify(_query()) == "point"


class TestHistogram:
    def test_counts_zero_filled(self):
        h = QueryClassHistogram()
        h.observe_rows(_rows(_query(sort_mb=10.0)))
        counts = _counts(h)
        assert counts["working_memory"] == 1
        assert set(counts) == set(QUERY_CLASSES)

    def test_entropy_uniform_mix(self):
        h = QueryClassHistogram()
        h.observe_rows(_rows(_query(sort_mb=10.0)))
        h.observe_rows(_rows(_query(maintenance_mb=10.0), _query(temp_mb=10.0)))
        h.observe_rows(_rows(_query(write_kb=100.0)))
        assert h.entropy() == pytest.approx(1.0)

    def test_reset(self):
        h = QueryClassHistogram()
        h.observe_rows(_rows(_query()))
        h.reset()
        assert sum(_counts(h).values()) == 0


class TestEntropyFilter:
    def _uniform_histogram(self):
        h = QueryClassHistogram()
        h.observe_rows(
            _rows(
                _query(sort_mb=10.0),
                _query(maintenance_mb=10.0),
                _query(temp_mb=10.0),
                _query(write_kb=100.0),
            )
        )
        return h

    def _skewed_histogram(self):
        h = QueryClassHistogram()
        h.observe_rows(_rows(*[_query(sort_mb=10.0)] * 50, _query()))
        return h

    def test_no_escalation_before_trigger_count(self):
        f = EntropyFilter(trigger_count=8)
        h = self._uniform_histogram()
        for _ in range(7):
            assert not f.should_escalate(h, knobs_at_cap=True)

    def test_escalates_at_eighth_consecutive_with_cap_and_entropy(self):
        f = EntropyFilter(trigger_count=8)
        h = self._uniform_histogram()
        results = [f.should_escalate(h, knobs_at_cap=True) for _ in range(8)]
        assert results == [False] * 7 + [True]
        assert f.entropy_hits == 1

    def test_no_escalation_below_entropy_threshold(self):
        f = EntropyFilter(trigger_count=8, entropy_threshold=0.75)
        h = self._skewed_histogram()
        results = [f.should_escalate(h, knobs_at_cap=True) for _ in range(8)]
        assert not any(results)

    def test_no_escalation_when_knobs_not_at_cap(self):
        f = EntropyFilter(trigger_count=8)
        h = self._uniform_histogram()
        results = [f.should_escalate(h, knobs_at_cap=False) for _ in range(8)]
        assert not any(results)

    def test_quiet_window_breaks_streak(self):
        f = EntropyFilter(trigger_count=4)
        h = self._uniform_histogram()
        for _ in range(3):
            f.should_escalate(h, knobs_at_cap=True)
        f.record_quiet_window()
        assert not f.should_escalate(h, knobs_at_cap=True)
        assert f._consecutive == 1

    def test_counter_resets_after_evaluation(self):
        """§3.1: 'the same job waits for next 8 throttles'."""
        f = EntropyFilter(trigger_count=4)
        h = self._skewed_histogram()
        for _ in range(4):
            f.should_escalate(h, knobs_at_cap=True)
        assert f._consecutive == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EntropyFilter(trigger_count=0)
        with pytest.raises(ValueError):
            EntropyFilter(entropy_threshold=1.5)
