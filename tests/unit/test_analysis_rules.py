"""Good/bad fixtures for every `repro lint` rule, plus engine plumbing."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, lint_paths, render_text
from repro.analysis.imports import ImportMap


def lint_source(tmp_path: Path, source: str, relpath: str = "repro/dbsim/mod.py"):
    """Write *source* at *relpath* under a scratch root and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return lint_paths([target], root=tmp_path)


def rules_hit(findings) -> set[str]:
    return {f.rule for f in findings}


class TestR001NoGlobalRng:
    def test_bad_stdlib_global_stream(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random
            x = random.random()
            """,
        )
        assert rules_hit(findings) == {"R001"}
        assert findings[0].line == 3

    def test_bad_numpy_global_stream(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            np.random.seed(3)
            y = np.random.uniform(0, 1)
            """,
        )
        assert [f.rule for f in findings] == ["R001", "R001"]

    def test_good_threaded_generator_draws(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def run(rng):
                return rng.uniform(0, 1) + rng.normal()
            """,
        )
        assert findings == []

    def test_good_seeded_default_rng_outside_library(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(5)
            """,
            relpath="tests/unit/test_something.py",
        )
        assert findings == []

    def test_aliased_import_still_caught(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from numpy import random as npr
            npr.shuffle([1, 2, 3])
            """,
        )
        assert rules_hit(findings) == {"R001"}

    def test_non_module_attribute_chains_ignored(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            class Holder:
                def draw(self):
                    return self.random.random()
            """,
        )
        assert findings == []


class TestR002NoWallclockInSim:
    def test_bad_time_time_in_dbsim(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            def stamp():
                return time.time()
            """,
        )
        assert rules_hit(findings) == {"R002"}

    def test_bad_datetime_now_in_core(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from datetime import datetime
            def stamp():
                return datetime.now()
            """,
            relpath="repro/core/tde/mod.py",
        )
        assert rules_hit(findings) == {"R002"}

    def test_good_outside_simulation_paths(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            def stamp():
                return time.time()
            """,
            relpath="repro/cloud/mod.py",
        )
        assert findings == []

    def test_good_benchmark_files_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            def stamp():
                return time.time()
            """,
            relpath="repro/dbsim/bench_disk.py",
        )
        assert findings == []

    def test_good_simulated_clock(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def stamp(db):
                return db.clock_s
            """,
        )
        assert findings == []


class TestR003RngMustThread:
    def test_bad_unseeded_default_rng(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
            relpath="scripts/tool.py",  # outside library: only R003 fires
        )
        assert rules_hit(findings) == {"R003"}

    def test_bad_unseeded_stdlib_random(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random
            rng = random.Random()
            """,
            relpath="scripts/tool.py",
        )
        assert rules_hit(findings) == {"R003"}

    def test_bad_unseeded_make_rng(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.common.rng import make_rng
            rng = make_rng()
            """,
            relpath="scripts/tool.py",
        )
        assert rules_hit(findings) == {"R003"}

    def test_good_seeded_construction(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random
            from repro.common.rng import make_rng
            a = random.Random(5)
            b = make_rng(0)
            c = make_rng(seed=3)
            """,
            relpath="scripts/tool.py",
        )
        assert findings == []

    def test_good_explicit_none_is_a_stated_choice(self, tmp_path):
        # ``make_rng(None)`` documents "OS entropy, on purpose".
        findings = lint_source(
            tmp_path,
            """
            from repro.common.rng import make_rng
            rng = make_rng(None)
            """,
            relpath="scripts/tool.py",
        )
        assert findings == []


class TestEngineAndReporters:
    def test_rules_are_r001_to_r003(self):
        assert [rule for rule, _ in RULES] == ["R001", "R002", "R003"]

    def test_syntax_error_raises(self, tmp_path):
        with pytest.raises(SyntaxError):
            lint_source(tmp_path, "def broken(:\n")

    def test_findings_sorted_and_relative(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random
            a = random.random()
            b = random.random()
            """,
        )
        assert [f.line for f in findings] == [3, 4]
        assert findings[0].path == "repro/dbsim/mod.py"

    def test_text_reporter_format(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random
            a = random.random()
            """,
        )
        text = render_text(findings)
        assert text.startswith("repro/dbsim/mod.py:3:4: R001 call to global-stream")
        assert text.endswith("repro lint: 1 finding")
        assert render_text([]) == "repro lint: no findings"

    def test_pycache_and_egg_info_skipped(self, tmp_path):
        bad = "import random\nx = random.random()\n"
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text(bad)
        (tmp_path / "pkg.egg-info").mkdir()
        (tmp_path / "pkg.egg-info" / "junk.py").write_text(bad)
        assert lint_paths([tmp_path], root=tmp_path) == []


class TestImportMap:
    def _qualify(self, source: str, expr: str):
        import ast

        tree = ast.parse(textwrap.dedent(source) + f"\n_probe = {expr}\n")
        imports = ImportMap(tree)
        probe = tree.body[-1]
        return imports.qualify(probe.value)

    def test_plain_and_aliased_imports(self):
        assert self._qualify("import random", "random.random") == "random.random"
        assert (
            self._qualify("import numpy as np", "np.random.seed")
            == "numpy.random.seed"
        )

    def test_from_imports(self):
        assert (
            self._qualify("from numpy.random import default_rng", "default_rng")
            == "numpy.random.default_rng"
        )
        assert (
            self._qualify("from datetime import datetime", "datetime.now")
            == "datetime.datetime.now"
        )

    def test_unimported_roots_resolve_to_none(self):
        assert self._qualify("x = 1", "x.random.random") is None
