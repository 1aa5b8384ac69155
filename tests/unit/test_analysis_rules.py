"""Good/bad fixtures for every `repro lint` rule, plus engine plumbing."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Linter, all_rules, get_rule, render
from repro.analysis.findings import Severity
from repro.analysis.imports import ImportMap


def lint_source(
    tmp_path: Path, source: str, relpath: str = "repro/dbsim/mod.py", select=None
):
    """Write *source* at *relpath* under a scratch root and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return Linter(root=tmp_path, select=select).lint_paths([target])


def rules_hit(findings) -> set[str]:
    return {f.rule for f in findings}


class TestRegistry:
    def test_all_builtin_rules_registered(self):
        ids = [cls.id for cls in all_rules()]
        assert ids == ["R001", "R002", "R003", "R005", "R006", "R007"]

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError, match="R999"):
            get_rule("R999")


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

    def test_bad_library_default_rng_outside_rng_module(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(7)
            """,
        )
        assert rules_hit(findings) == {"R001"}
        assert "make_rng" in findings[0].message

    def test_good_threaded_generator_draws(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def run(rng):
                return rng.uniform(0, 1) + rng.normal()
            """,
        )
        assert findings == []

    def test_good_default_rng_allowed_in_rng_module(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            def make_rng(seed):
                return np.random.default_rng(seed)
            """,
            relpath="repro/common/rng.py",
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


class TestR005KnobRegistryConsistency:
    def test_bad_out_of_range_value(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            CONFIG = {"work_mem": 99999}
            """,
        )
        assert rules_hit(findings) == {"R005"}
        assert "outside the registry range" in findings[0].message

    def test_bad_typo_in_knob_dict(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            CONFIG = {"work_mem": 64, "shared_bufers": 1024}
            """,
        )
        assert rules_hit(findings) == {"R005"}
        assert "shared_buffers" in findings[0].message

    def test_bad_typo_in_subscript(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def read(config):
                return config["bgwriter_delai"]
            """,
        )
        assert rules_hit(findings) == {"R005"}

    def test_bad_shadow_knobdef_bounds(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.dbsim.knobs import KnobClass, KnobDef, KnobUnit
            K = KnobDef("work_mem", KnobClass.MEMORY, KnobUnit.MEGABYTES,
                        4, 2, 9999)
            """,
        )
        assert rules_hit(findings) == {"R005"}
        assert len(findings) == 2  # min_value and max_value both disagree

    def test_good_in_range_values_and_real_names(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            CONFIG = {"work_mem": 64, "shared_buffers": 4096}
            def read(config):
                return config["checkpoint_timeout"]
            """,
        )
        assert findings == []

    def test_good_non_knob_dicts_ignored(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            HEADERS = {"content_type": "json", "retries": 99999}
            """,
        )
        assert findings == []

    def test_good_tests_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            CLAMP_ME = {"work_mem": 10**9}
            """,
            relpath="tests/unit/test_clamp.py",
        )
        assert findings == []


class TestR006BoundedControlPlane:
    def test_bad_bare_except_in_core(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def apply(adapter, node, config):
                try:
                    return adapter.apply(node, config)
                except:
                    return None
            """,
            relpath="repro/core/apply/mod.py",
        )
        assert rules_hit(findings) == {"R006"}
        assert "bare `except:`" in findings[0].message

    def test_bad_broad_except_exception_in_cloud(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def poll(agent):
                try:
                    return agent.read()
                except Exception:
                    return None
            """,
            relpath="repro/cloud/mod.py",
        )
        assert rules_hit(findings) == {"R006"}

    def test_bad_broad_except_in_tuple(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def poll(agent):
                try:
                    return agent.read()
                except (KeyError, BaseException):
                    return None
            """,
            relpath="repro/core/director/mod.py",
        )
        assert rules_hit(findings) == {"R006"}
        assert "BaseException" in findings[0].message

    def test_bad_unbounded_while_true_retry(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def retry(op):
                while True:
                    op()
            """,
            relpath="repro/core/apply/mod.py",
        )
        assert rules_hit(findings) == {"R006"}
        assert "attempt" in findings[0].message

    def test_bad_break_in_nested_loop_does_not_escape(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def retry(op, items):
                while True:
                    for item in items:
                        if op(item):
                            break
            """,
            relpath="repro/core/apply/mod.py",
        )
        assert rules_hit(findings) == {"R006"}

    def test_good_typed_except_and_bounded_retry(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def retry(op, max_attempts):
                for _ in range(max_attempts):
                    try:
                        return op()
                    except KeyError:
                        continue
                raise TimeoutError("out of attempts")
            """,
            relpath="repro/core/apply/mod.py",
        )
        assert findings == []

    def test_good_while_true_with_break(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def drain(queue):
                while True:
                    if not queue:
                        break
                    queue.pop()
            """,
            relpath="repro/core/director/mod.py",
        )
        assert findings == []

    def test_good_while_true_with_return_inside_try(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def wait(op):
                while True:
                    try:
                        return op()
                    except KeyError:
                        pass
            """,
            relpath="repro/core/apply/mod.py",
        )
        assert findings == []

    def test_good_bounded_condition_loop(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def wait(elapsed, total):
                while elapsed < total:
                    elapsed += 1.0
            """,
            relpath="repro/core/apply/mod.py",
        )
        assert findings == []

    def test_good_outside_control_plane(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def retry(op):
                while True:
                    try:
                        op()
                    except Exception:
                        pass
            """,
            relpath="repro/dbsim/mod.py",
        )
        assert findings == []

    def test_good_tests_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def retry(op):
                try:
                    op()
                except Exception:
                    pass
            """,
            relpath="tests/unit/test_core_mod.py",
        )
        assert findings == []

    def test_noqa_suppresses_r006(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def poll(agent):
                try:
                    return agent.read()
                except Exception:  # repro: noqa[R006] plugin boundary
                    return None
            """,
            relpath="repro/core/tde/mod.py",
        )
        assert findings == []


class TestR007RecorderMustThread:
    def test_bad_unthreaded_construction_in_scope(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.core.apply.reconciler import Reconciler

            def build(orchestrator, recorder):
                return Reconciler(orchestrator)
            """,
            relpath="repro/core/mod.py",
            select=["R007"],
        )
        assert rules_hit(findings) == {"R007"}
        assert "Reconciler" in findings[0].message

    def test_bad_method_of_recorder_carrying_class(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.core.apply.orchestrator import ServiceOrchestrator

            class Facade:
                def __init__(self, recorder=None):
                    self.recorder = recorder

                def wire(self):
                    return ServiceOrchestrator()
            """,
            relpath="repro/core/mod.py",
            select=["R007"],
        )
        assert rules_hit(findings) == {"R007"}

    def test_good_keyword_threading(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.core.apply.reconciler import Reconciler

            def build(orchestrator, recorder):
                return Reconciler(orchestrator, recorder=recorder)
            """,
            relpath="repro/core/mod.py",
            select=["R007"],
        )
        assert findings == []

    def test_good_no_recorder_in_scope(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.core.apply.reconciler import Reconciler

            def build(orchestrator):
                return Reconciler(orchestrator)
            """,
            relpath="repro/core/mod.py",
            select=["R007"],
        )
        assert findings == []

    def test_good_outside_core_not_checked(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.core.apply.reconciler import Reconciler

            def build(orchestrator, recorder):
                return Reconciler(orchestrator)
            """,
            relpath="repro/experiments/mod.py",
            select=["R007"],
        )
        assert findings == []

    def test_good_kwargs_passthrough(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.core.apply.reconciler import Reconciler

            def build(orchestrator, recorder, **kwargs):
                return Reconciler(orchestrator, **kwargs)
            """,
            relpath="repro/core/mod.py",
            select=["R007"],
        )
        assert findings == []


class TestSuppressions:
    def test_targeted_noqa_suppresses_one_rule(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            t = time.time()  # repro: noqa[R002] harness timing hook
            """,
        )
        assert findings == []

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            t = time.time()  # repro: noqa[R001]
            """,
        )
        assert rules_hit(findings) == {"R002"}

    def test_blanket_noqa_suppresses_everything(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time, random
            t = time.time() + random.random()  # repro: noqa
            """,
        )
        assert findings == []

    def test_multi_rule_noqa(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time, random
            t = time.time() + random.random()  # repro: noqa[R001, R002]
            """,
        )
        assert findings == []


class TestEngineAndReporters:
    def test_select_runs_only_requested_rules(self, tmp_path):
        source = """
        import time, random
        t = time.time()
        x = random.random()
        """
        only_r002 = lint_source(tmp_path, source, select=["R002"])
        assert rules_hit(only_r002) == {"R002"}

    def test_syntax_error_becomes_r000_finding(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert rules_hit(findings) == {"R000"}
        assert findings[0].severity is Severity.ERROR

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
        assert str(findings[0].path) == "repro/dbsim/mod.py"

    def test_text_reporter_format(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random
            a = random.random()
            """,
        )
        text = render(findings, "text")
        assert "repro/dbsim/mod.py:3:" in text
        assert "R001 [error]" in text
        assert text.endswith("repro lint: 1 finding")
        assert render([], "text") == "repro lint: no findings"

    def test_json_reporter_roundtrips(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random
            a = random.random()
            """,
        )
        payload = json.loads(render(findings, "json"))
        assert payload["count"] == 1
        entry = payload["findings"][0]
        assert entry["rule"] == "R001"
        assert entry["severity"] == "error"
        assert entry["path"] == "repro/dbsim/mod.py"
        assert entry["line"] == 3

    def test_pycache_and_egg_info_skipped(self, tmp_path):
        bad = "import random\nx = random.random()\n"
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text(bad)
        (tmp_path / "pkg.egg-info").mkdir()
        (tmp_path / "pkg.egg-info" / "junk.py").write_text(bad)
        assert Linter(root=tmp_path).lint_paths([tmp_path]) == []


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


class TestLintJsonSchema:
    """Pin the `repro lint --format json` output schema."""

    def test_schema_snapshot(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
            select=["R002"],
        )
        payload = json.loads(render(findings, "json"))
        assert set(payload) == {"findings", "count"}
        assert payload["count"] == 1
        (entry,) = payload["findings"]
        assert set(entry) == {
            "rule", "severity", "path", "line", "col", "message",
        }
        assert entry["rule"] == "R002"
        assert entry["severity"] == "error"
        assert entry["path"] == "repro/dbsim/mod.py"
        assert isinstance(entry["line"], int)
        assert isinstance(entry["col"], int)
        assert isinstance(entry["message"], str)

    def test_empty_schema(self):
        payload = json.loads(render([], "json"))
        assert payload == {"findings": [], "count": 0}
