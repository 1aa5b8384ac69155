"""Golden Fig. 7 runs: data-disk IOPS and throughput under periodic re-apply.

The run uses the fig07 bench's parameters (``duration_s=600.0``).
``tests/golden/fig07_reload_iops.txt`` pins, for each variant, a sha256
of its stitched per-second IOPS value bytes, its mean IOPS and mean tps
at full ``repr`` precision, and the number of reloads fired, so any
change to the disk model, the apply modes or the way the IOPS series is
stitched from the windows shows up as a byte diff.

Update workflow — after an intentional change to the disk model, the
apply modes or the workload, regenerate the capture and call out the
diff::

    PYTHONPATH=src python tests/golden/test_fig07_reload_iops.py \\
        > tests/golden/fig07_reload_iops.txt
"""

import hashlib
from pathlib import Path

import numpy as np

from repro.experiments import fig07_reload_iops

GOLDEN = Path(__file__).parent / "fig07_reload_iops.txt"


def render() -> str:
    comparison = fig07_reload_iops.run(duration_s=600.0)
    variants = {
        "no_reload": comparison.no_reload,
        "reload_signal": comparison.reload_signal,
        "socket_activation": comparison.socket_activation,
    }
    lines = []
    for label, report in variants.items():
        values = report.iops
        digest = hashlib.sha256(values.tobytes()).hexdigest()
        lines.append(f"{label} iops n={len(values)} sha256={digest}")
        lines.append(
            f"{label} mean_iops={float(np.mean(values))!r}"
            f" mean_tps={float(report.mean_tps)!r}"
            f" reloads_fired={report.reloads_fired}"
        )
    return "\n".join(lines) + "\n"


def test_fig07_runs_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    print(render(), end="")
