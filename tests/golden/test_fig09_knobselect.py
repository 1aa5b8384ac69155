"""Golden fig09 window with dynamic knob selection on.

``tests/golden/fig09_quick.txt`` pins the flag-off window; this pins the
same window with ``--knob-select``, so a change to the Lasso-path
re-rank, the stability window or the projected recommendation shows up
as a byte diff instead of only as a run-twice determinism check.

Update workflow — after an intentional change to the selection tier,
regenerate the capture and call out the diff in the change::

    PYTHONPATH=src python -m repro run fig09 --fleet-size 4 --hours 1 \\
        --seed 3 --knob-select > tests/golden/fig09_knobselect_quick.txt
"""

from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "fig09_knobselect_quick.txt"


def test_fig09_knob_select_window_matches_golden(capsys):
    args = ["run", "fig09", "--fleet-size", "4", "--hours", "1", "--seed", "3"]
    assert main([*args, "--knob-select"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
