"""Golden Figs. 3–4 entropy series: the §3.1 entropy filter's input.

The memory detector's escalation rule reads the normalized entropy of
the query-class histogram, which counts the window's sample rows by
class straight from their footprint columns. Each case renders the
default ``repro run fig03`` series at the paper's two adulteration
probabilities and diffs it against the committed capture, so a change
to the sample draws, the class thresholds or the histogram shows up as
a byte diff.

Update workflow — after an intentional change to the workload sample or
the query classes, regenerate the captures and call out the diff::

    PYTHONPATH=src python -m repro run fig03 --adulteration 0.8 \\
        > tests/golden/fig03_entropy_quick.txt
    PYTHONPATH=src python -m repro run fig03 --adulteration 0.5 \\
        > tests/golden/fig04_entropy_quick.txt
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent


@pytest.mark.parametrize(
    ("golden", "adulteration"),
    [("fig03_entropy_quick.txt", "0.8"), ("fig04_entropy_quick.txt", "0.5")],
)
def test_entropy_series_matches_golden(capsys, golden, adulteration):
    assert main(["run", "fig03", "--adulteration", adulteration]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / golden).read_text()
