"""BENCHMARK.json describes exactly what loopbench/run.py reports."""

import json
from pathlib import Path

from loopbench.run import END_TO_END, PER_LAYER
from loopbench.scenarios import WORKLOADS

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_workloads_and_reasons_match():
    names = [w["name"] for w in SPEC["workloads"]]
    assert len(names) >= 2 and set(names) <= set(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200


def test_metrics_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_bounds_are_within_contract():
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    bounds = [m["bound"] for m in SPEC["end_to_end"]]
    assert all(0 < b <= 0.25 for b in bounds)
    assert setup["bound"] == max(bounds)


def test_command_stays_inside_paths():
    assert SPEC["command"] == ["python3", "loopbench/run.py"]
    assert SPEC["paths"] == ["loopbench"]
