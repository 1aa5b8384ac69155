"""`repro lint` over the shipped tree: the invariants actually hold.

The acceptance bar for the static-analysis gate: linting ``src/`` (and
``tests/``) on the committed tree exits 0, and introducing any
rule-violating file flips the exit code with a precise ``file:line``
finding.
"""

import textwrap
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestShippedTreeIsClean:
    def test_lint_src_exits_zero(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "src"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_lint_tests_exits_zero(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "tests"]) == 0


class TestViolationsFlipTheExitCode:
    def test_bad_fixture_fails_with_file_and_line(
        self, tmp_path, capsys, monkeypatch
    ):
        bad = tmp_path / "repro" / "dbsim" / "clockleak.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            textwrap.dedent(
                """
                import time
                import random

                def leak():
                    return time.time() + random.random()
                """
            )
        )
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "repro/dbsim/clockleak.py:6:" in out
        assert "R001" in out and "R002" in out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "definitely/not/a/path"]) == 2
