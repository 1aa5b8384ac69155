"""Golden fig12 landscapes, one per tuner.

fig12 drives two :class:`~repro.core.service.AutoDBaaS` landscapes, TDE
gated and ungated, over the paper's daily arrival curve. These captures
pin a 12-hour run of each tuner, so a change to the landscape window
(engine step, TDE, director, DFA apply) shows up as a byte diff.

Update workflow — after an intentional change to the landscape's
outputs, regenerate both captures and call out the diff in the change::

    PYTHONPATH=src python -m repro run fig12 --hours 12 --seed 0 \\
        --tuner ottertune > tests/golden/fig12_ottertune_quick.txt
    PYTHONPATH=src python -m repro run fig12 --hours 12 --seed 0 \\
        --tuner cdbtune > tests/golden/fig12_cdbtune_quick.txt
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent


@pytest.mark.parametrize("tuner", ["ottertune", "cdbtune"])
def test_fig12_landscape_matches_golden(capsys, tuner):
    args = ["run", "fig12", "--hours", "12", "--seed", "0", "--tuner", tuner]
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / f"fig12_{tuner}_quick.txt").read_text()
