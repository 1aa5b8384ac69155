"""Golden chaos reports: the fault windows' rendered bytes are pinned.

Chaos runs are where restart stalls, cold caches and degraded disks meet
the engine; running a report twice only proves determinism, not that
those windows kept their values. Each case renders the quick report for
seed 7 through the CLI and diffs it against the committed capture.

Update workflow — after an intentional change to fault-window behaviour,
regenerate the captures and call out the report diff in the change::

    PYTHONPATH=src python -m repro chaos --quick --seed 7 \\
        > tests/golden/chaos_quick_seed7.txt
    PYTHONPATH=src python -m repro chaos --profile adversarial --quick --seed 7 \\
        > tests/golden/chaos_adversarial_quick_seed7.txt
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent


@pytest.mark.parametrize(
    ("golden", "profile_args"),
    [
        ("chaos_quick_seed7.txt", []),
        ("chaos_adversarial_quick_seed7.txt", ["--profile", "adversarial"]),
    ],
)
def test_quick_chaos_report_matches_golden(capsys, golden, profile_args):
    assert main(["chaos", *profile_args, "--quick", "--seed", "7"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / golden).read_text()
