"""Unit tests for the CLI."""

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out and "fig15" in out

    def test_run_fig02(self, capsys):
        assert main(["run", "fig02"]) == 0
        out = capsys.readouterr().out
        assert "tpcc" in out and "wikipedia" in out

    def test_run_fig03_with_args(self, capsys):
        assert main(["run", "fig03", "--windows", "3", "--adulteration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 4

    def test_run_fig08(self, capsys):
        assert main(["run", "fig08"]) == 0
        assert "daily total" in capsys.readouterr().out

    def test_chaos_quick(self, capsys):
        args = ["chaos", "--quick", "--seed", "3", "--windows", "8", "--fleet-size", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "chaos recovery report" in first
        assert "verdict:" in first
        # Same seed and flags must reproduce the report byte for byte.
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_chaos_adversarial_profile(self, capsys):
        args = [
            "chaos", "--profile", "adversarial", "--quick",
            "--seed", "3", "--windows", "8", "--fleet-size", "1",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "adversarial chaos report" in first
        assert "governor policy:" in first
        assert "safety: violations_clamped=" in first
        assert "verdict:" in first
        # Same seed and flags must reproduce the report byte for byte.
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_trace_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "chaos" in out and "fleet" in out and "--profile" in out

    def test_trace_chaos_writes_deterministic_artifacts(self, capsys, tmp_path):
        out_base = tmp_path / "trace"
        args = [
            "trace",
            "chaos",
            "--seed",
            "3",
            "--out",
            str(out_base),
            "--profile",
            "--metrics",
        ]
        assert main(args) == 0
        first_out = capsys.readouterr().out
        assert "trace: experiment=chaos seed=3" in first_out
        assert "jsonl sha256:" in first_out
        assert "sim_cum_s" in first_out  # --profile table
        assert "# TYPE" in first_out  # --metrics exposition
        jsonl = (tmp_path / "trace.jsonl").read_text()
        chrome = (tmp_path / "trace.chrome.json").read_text()
        assert jsonl.startswith('{"')
        assert '"traceEvents"' in chrome
        # Same seed must reproduce both artifacts byte for byte.
        rerun = tmp_path / "rerun"
        args[5] = str(rerun / "trace")
        rerun.mkdir()
        assert main(args) == 0
        capsys.readouterr()
        assert (rerun / "trace.jsonl").read_text() == jsonl
        assert (rerun / "trace.chrome.json").read_text() == chrome

    def test_trace_default_out_lands_in_artifacts_dir(
        self, capsys, tmp_path, monkeypatch
    ):
        # No --out: artifacts go under artifacts/, never the repo root,
        # and the directory is created on demand.
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "chaos", "--seed", "3"]) == 0
        capsys.readouterr()
        assert (tmp_path / "artifacts" / "trace.jsonl").is_file()
        assert (tmp_path / "artifacts" / "trace.chrome.json").is_file()
        assert not (tmp_path / "trace.jsonl").exists()

    def test_trace_out_creates_parent_directories(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        out_base = tmp_path / "deep" / "nested" / "trace"
        assert main(["trace", "chaos", "--out", str(out_base)]) == 0
        capsys.readouterr()
        assert out_base.with_suffix(".jsonl").is_file()

    def test_trace_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "fig99"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig08", "--features", "surrogate,knob-select"],
            ["run", "fig02", "--features", "surrogate"],
            ["chaos", "--profile", "adversarial", "--quick",
             "--features", "knob-select"],
        ],
        ids=["run-fig08", "run-fig02", "chaos-adversarial"],
    )
    def test_features_rejected_where_not_honoured(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --features applies to")

    @pytest.mark.parametrize("value", ["governor", "surrogate,bogus"])
    def test_unknown_feature_name_rejected_by_argparse(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig09", "--features", value])
        assert excinfo.value.code == 2
        assert "unknown feature" in capsys.readouterr().err

    def test_features_declared_once_across_subcommands(self, capsys):
        for command in ("run", "chaos", "trace"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            out = capsys.readouterr().out
            assert "--features NAMES" in out
            assert "--surrogate" not in out and "--knob-select" not in out
