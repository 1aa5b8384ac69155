"""Unit tests for query templating."""

import numpy as np

from repro.workloads.query import QueryFamily, QueryFootprint, QueryRows, QueryType
from repro.workloads.templating import TemplateCatalog, make_template, template_id


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


class TestTemplateId:
    def test_stable(self):
        assert template_id("abc") == template_id("abc")

    def test_distinct(self):
        assert template_id("a") != template_id("b")

    def test_short(self):
        assert len(template_id("query")) == 12


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
    def test_observe_groups_by_template(self):
        cat = TemplateCatalog()
        tids = cat.observe_rows(
            _rows("SELECT * FROM t WHERE id = 1", "SELECT * FROM t WHERE id = 2")
        )
        assert len(tids) == 1
        assert len(cat._stats) == 1
        assert cat.stats(tids[0]).count == 2

    def test_counts_per_template(self):
        cat = TemplateCatalog()
        tid, other = cat.observe_rows(
            _rows("SELECT 1", "SELECT 1", "SELECT * FROM other")
        )
        assert cat.stats(tid).count == 2
        assert cat.stats(other).count == 1

    def test_example_retained(self):
        cat = TemplateCatalog()
        rows = _rows("SELECT 1")
        (tid,) = cat.observe_rows(rows)
        example_rows, row = cat.stats(tid).example_at
        assert example_rows is rows and row == 0

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
        cat = TemplateCatalog()
        (tid,) = cat.observe_rows(rows)
        assert cat.stats(tid).template == make_template(
            "SELECT * FROM t WHERE a = 17 AND b = 'v000003'"
        )


class TestIdentifierSuffixes:
    def test_numeric_identifier_suffixes_templated(self):
        """Generated names (tmp_sales_482) must share one template."""
        a = make_template("CREATE TEMP TABLE tmp_sales_482 AS SELECT 1")
        b = make_template("CREATE TEMP TABLE tmp_sales_91 AS SELECT 1")
        assert a == b
        assert "tmp_sales_?" in a
