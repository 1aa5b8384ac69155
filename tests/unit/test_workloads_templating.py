"""Unit tests for query templating."""

import numpy as np

from repro.core.tde.memory_detector import MemoryThrottleDetector
from repro.workloads.query import QueryFamily, QueryFootprint, QueryRows, QueryType
from repro.workloads.templating import make_template


class TestMakeTemplate:
    def test_strips_numbers(self):
        assert make_template("SELECT * FROM t WHERE id = 42") == (
            "SELECT * FROM t WHERE id = ?"
        )

    def test_strips_strings(self):
        out = make_template("SELECT * FROM t WHERE name = 'bob'")
        assert "'bob'" not in out
        assert "?" in out

    def test_numbers_inside_strings_not_double_stripped(self):
        out = make_template("UPDATE t SET v = 'a1b2' WHERE id = 7")
        assert out == "UPDATE t SET v = ? WHERE id = ?"

    def test_whitespace_normalised(self):
        assert make_template("SELECT  *\n FROM t") == "SELECT * FROM t"

    def test_same_template_for_different_params(self):
        a = make_template("SELECT * FROM t WHERE id = 1")
        b = make_template("SELECT * FROM t WHERE id = 999")
        assert a == b


def _rows(*texts):
    """Log rows with the given statement texts, one family per distinct text."""
    distinct = list(dict.fromkeys(texts))
    families = tuple(
        QueryFamily(f"f{i}", QueryType.SELECT, text, 1.0, QueryFootprint())
        for i, text in enumerate(distinct)
    )
    index = np.array([distinct.index(text) for text in texts], dtype=np.intp)
    footprints = np.array([QueryFootprint().columns] * len(texts))
    return QueryRows(families, index, footprints)


class TestTemplateCatalog:
    """The memory detector's templates: one example row per template."""

    def test_observe_groups_by_template(self):
        detector = MemoryThrottleDetector("svc")
        detector._observe(
            _rows("SELECT * FROM t WHERE id = 1", "SELECT * FROM t WHERE id = 2")
        )
        assert list(detector._examples) == ["SELECT * FROM t WHERE id = ?"]
        assert detector.reservoir.seen == 1

    def test_example_retained(self):
        detector = MemoryThrottleDetector("svc")
        rows = _rows("SELECT 1", "SELECT * FROM other", "SELECT 1")
        detector._observe(rows)
        example_rows, row = detector._examples["SELECT ?"]
        assert example_rows is rows and row == 2

    def test_generated_families_template_cleanly(self):
        fam = QueryFamily(
            "f",
            QueryType.SELECT,
            "SELECT * FROM t WHERE a = %s AND b = %s",
            1.0,
            QueryFootprint(),
            ("int", "str"),
        )
        rows = QueryRows(
            (fam,), np.zeros(10, dtype=np.intp), np.array([fam.footprint.columns] * 10)
        )
        detector = MemoryThrottleDetector("svc")
        detector._observe(rows)
        assert list(detector._examples) == [
            make_template("SELECT * FROM t WHERE a = 17 AND b = 'v000003'")
        ]


class TestIdentifierSuffixes:
    def test_numeric_identifier_suffixes_templated(self):
        """Generated names (tmp_sales_482) must share one template."""
        a = make_template("CREATE TEMP TABLE tmp_sales_482 AS SELECT 1")
        b = make_template("CREATE TEMP TABLE tmp_sales_91 AS SELECT 1")
        assert a == b
        assert "tmp_sales_?" in a
