"""The reach gate of ``tools/coverage_baseline.py --entry-points``.

Both verdicts, on never-called definitions and on stored-but-unread
state, are pure functions of their reports, so these tests drive them on
synthetic input and sources without running any entry point.
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
        found = reach._outermost_functions(source.read_text())
        assert [name for _, _, name in found] == ["Base.name", "f"]
        assert found[1][0] == 27


class TestSourceSnapshot:
    """Definitions are matched on the text read before the entry points run."""

    MODULE = "def first():\n    return 1\n\n\ndef second():\n    return 2\n"

    def _gate(self, monkeypatch, tmp_path, capsys, during_run):
        module = tmp_path / "repro" / "mod.py"
        module.parent.mkdir()
        module.write_text(self.MODULE)
        monkeypatch.setattr(reach, "SRC", tmp_path)
        monkeypatch.setattr(reach, "KNOWN_UNREACHED", ())
        monkeypatch.setattr(reach, "_report_state", lambda *_: False)

        def run():
            # Every definition runs, at the lines it had when the run began.
            called = {(str(module), 1), (str(module), 5)}
            during_run(module)
            return called

        monkeypatch.setattr(reach, "_run_entry_points", run)
        status = reach._report_reach()
        return status, capsys.readouterr().out

    def test_unchanged_sources_match_the_snapshot(self, monkeypatch, tmp_path, capsys):
        status, out = self._gate(monkeypatch, tmp_path, capsys, lambda module: None)
        assert status == 0
        assert "  0 definitions, 0 lines" in out

    def test_a_module_edited_during_the_run_fails(self, monkeypatch, tmp_path, capsys):
        def edit(module):
            module.write_text("import os\n\n" + self.MODULE)

        status, out = self._gate(monkeypatch, tmp_path, capsys, edit)
        assert status == 1
        assert "FAIL: repro/mod.py changed during the run" in out
        assert "never called" not in out

    def test_changed_sources_names_added_deleted_and_edited_modules(self):
        a, b, c = Path("a.py"), Path("b.py"), Path("c.py")
        before = {a: "x = 1\n", b: "y = 2\n"}
        after = {a: "x = 1\n", b: "y = 3\n", c: "z = 4\n"}
        assert reach.changed_sources(before, after) == [b, c]
        assert reach.changed_sources(before, {a: "x = 1\n"}) == [b]
        assert reach.changed_sources(before, dict(before)) == []


PRODUCT = textwrap.dedent(
    """
    from dataclasses import dataclass


    @dataclass(frozen=True)
    class Report:
        shown: int
        hidden: int


    class Engine:
        def __init__(self):
            self.pending = []
            self.log = {}
            self.ticks = 0

        def step(self, report):
            self.pending.append(report.shown)
            self.log["last"] = report
            self.ticks += 1
            return self.pending
    """
)


class TestStateVerdict:
    def _unread(self, *readers):
        return reach.unread_state({"repro/m.py": PRODUCT}, [PRODUCT, *readers])

    def test_write_only_attributes_fail(self):
        unread = self._unread()
        # ``pending`` is returned, so read; the rest is only written.
        assert sorted(unread) == ["hidden", "log", "ticks"]
        assert unread["ticks"] == ["repro/m.py:15", "repro/m.py:20"]
        problems = reach.state_verdict(unread, ())
        assert len(problems) == 3
        assert "ticks is stored at repro/m.py:15" in problems[2]

    def test_read_attributes_pass(self):
        reader = "def show(engine, report):\n    return engine.ticks, report.hidden\n"
        unread = self._unread(reader, "getattr(engine, 'log')")
        assert unread == {}
        assert reach.state_verdict(unread, ()) == []

    def test_writes_through_a_mutator_or_subscript_are_not_reads(self):
        reader = "engine.ticks += 1\nengine.log.update({})\nengine.log['k'] = 1\n"
        assert sorted(self._unread(reader)) == ["hidden", "log", "ticks"]

    def test_a_write_through_a_borrowed_attribute_is_no_store(self):
        # ``flat`` belongs to numpy: nothing in the product assigns it, so
        # writing through it stores nothing the product owns.
        product = "def fit(k, n, noise):\n    k.flat[:: n + 1] += noise\n"
        assert reach.unread_state({"repro/gp.py": product}, [product]) == {}

    def test_a_write_only_memo_still_fails(self):
        product = textwrap.dedent(
            """
            class Planner:
                def __init__(self):
                    self._memo = {}

                def cost(self, k, v):
                    self._memo[k] = v
                    return v
            """
        )
        unread = reach.unread_state({"repro/p.py": product}, [product])
        assert sorted(unread["_memo"]) == ["repro/p.py:4", "repro/p.py:7"]
        assert list(unread) == ["_memo"]
        (problem,) = reach.state_verdict(unread, ())
        assert problem.startswith("_memo is stored at ")

    def test_allow_listed_names_pass(self):
        known = (("hidden log", "kept on purpose"), ("ticks", "another reason"))
        assert reach.state_verdict(self._unread(), known) == []

    def test_stale_allow_list_entry_fails(self):
        known = (("hidden log ticks", "kept"), ("shown", "read after all"))
        problems = reach.state_verdict(self._unread(), known)
        assert problems == ["KNOWN_UNREAD name shown is read or no longer stored"]

    def test_allow_list_entry_for_deleted_state_fails(self):
        known = (("hidden log ticks gone", "kept"),)
        problems = reach.state_verdict(self._unread(), known)
        assert problems == ["KNOWN_UNREAD name gone is read or no longer stored"]
