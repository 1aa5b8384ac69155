"""Golden knob-selection ablation report.

``repro ablate knobs`` is the one entry point that runs knob selection
with a memory limit, so its subspace recommendations go through the
frozen budget repair. ``tests/golden/ablate_knobs_seed0.txt`` pins the
seed-0 report byte for byte.

Update workflow — after an intentional change to selection or repair,
regenerate the capture and call out the diff in the change::

    PYTHONPATH=src python -m repro ablate knobs --seed 0 \\
        > tests/golden/ablate_knobs_seed0.txt
"""

from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "ablate_knobs_seed0.txt"


def test_ablate_knobs_seed0_matches_golden(capsys):
    assert main(["ablate", "knobs", "--seed", "0"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
