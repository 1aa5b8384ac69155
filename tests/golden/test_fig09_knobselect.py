"""Golden fig09 windows, one per cell of ``--features``.

``tests/golden/fig09_quick.txt`` pins the flag-off window; these pin the
same window with each opt-in tuner tier armed, alone and together, so a
change to the surrogate screen, the Lasso-path re-rank, the stability
window or the projected recommendation shows up as a byte diff instead
of only as a run-twice determinism check.

Update workflow — after an intentional change to a tier, regenerate the
affected capture and call out the diff in the change::

    PYTHONPATH=src python -m repro run fig09 --fleet-size 4 --hours 1 \\
        --seed 3 --features knob-select > tests/golden/fig09_knobselect_quick.txt
    PYTHONPATH=src python -m repro run fig09 --fleet-size 4 --hours 1 \\
        --seed 3 --features surrogate > tests/golden/fig09_surrogate_quick.txt
    PYTHONPATH=src python -m repro run fig09 --fleet-size 4 --hours 1 \\
        --seed 3 --features surrogate,knob-select \\
        > tests/golden/fig09_surrogate_knobselect_quick.txt
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent


@pytest.mark.parametrize(
    ("features", "golden"),
    [
        ("knob-select", "fig09_knobselect_quick.txt"),
        ("surrogate", "fig09_surrogate_quick.txt"),
        ("surrogate,knob-select", "fig09_surrogate_knobselect_quick.txt"),
    ],
    ids=["knob-select", "surrogate", "surrogate,knob-select"],
)
def test_fig09_feature_window_matches_golden(capsys, features, golden):
    args = ["run", "fig09", "--fleet-size", "4", "--hours", "1", "--seed", "3"]
    assert main([*args, "--features", features]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / golden).read_text()
