"""The reach gate of ``tools/coverage_baseline.py --entry-points``.

The verdict is a pure function of the report, so these tests drive it on
synthetic input without running any entry point.
"""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "coverage_baseline.py"
_spec = importlib.util.spec_from_file_location("coverage_baseline", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

GLOBS = (
    ("repro/a.py", "A.kept", "read by a bench"),
    ("repro/*", "*.__repr__", "debugging aid"),
)
KNOWN = [
    ("repro/a.py", 10, 12, "A.kept", "read by a bench"),
    ("repro/b.py", 4, 5, "B.__repr__", "debugging aid"),
]


class TestVerdict:
    def test_clean_report_passes(self):
        assert reach.reach_verdict([], KNOWN, GLOBS) == []

    def test_new_unreached_definition_fails(self):
        unreached = [("repro/a.py", 20, 22, "A.orphan")]
        problems = reach.reach_verdict(unreached, KNOWN, GLOBS)
        assert len(problems) == 1
        assert "repro/a.py:20 A.orphan" in problems[0]

    def test_glob_matching_nothing_fails(self):
        globs = (*GLOBS, ("repro/a.py", "A.deleted", "code gone"))
        problems = reach.reach_verdict([], KNOWN, globs)
        assert len(problems) == 1
        assert "A.deleted" in problems[0]

    def test_glob_matching_only_a_reached_definition_fails(self):
        # A.now_called exists in repro/a.py but an entry point calls it,
        # so the report lists it nowhere and its glob matches nothing.
        globs = (*GLOBS, ("repro/a.py", "A.now_called", "no longer true"))
        problems = reach.reach_verdict([], KNOWN, globs)
        assert len(problems) == 1
        assert "A.now_called" in problems[0]

    def test_each_glob_of_an_entry_is_checked(self):
        globs = (("repro/a.py", "A.kept A.gone", "two names"), GLOBS[1])
        problems = reach.reach_verdict([], KNOWN, globs)
        assert len(problems) == 1
        assert "A.gone" in problems[0]

    def test_glob_must_match_the_module_too(self):
        globs = (("repro/b.py", "A.kept", "wrong module"), GLOBS[1])
        assert reach.reach_verdict([], KNOWN, globs)


class TestOutermostFunctions:
    def test_stubs_that_never_run_are_not_listed(self, tmp_path):
        source = tmp_path / "mod.py"
        source.write_text(
            textwrap.dedent(
                """
                import abc
                import typing
                from abc import abstractmethod
                from typing import Protocol, overload


                class Seam(Protocol):
                    def hook(self) -> int: ...


                class Base(abc.ABC):
                    @abc.abstractmethod
                    def run(self): ...

                    @abstractmethod
                    def stop(self): ...

                    def name(self):
                        return "base"


                @overload
                def f(x: int) -> int: ...
                @typing.overload
                def f(x: str) -> str: ...
                def f(x):
                    return x
                """
            )
        )
        found = reach._outermost_functions(source)
        assert [name for _, _, name in found] == ["Base.name", "f"]
        assert found[1][0] == 27
