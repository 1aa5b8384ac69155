"""Golden Fig. 5 traces: per-second data-disk write latency, default vs tuned.

The run uses the fig05 bench's parameters (``duration_s=900.0``,
``rps=1500.0``). ``tests/golden/fig05_disk_latency.txt`` pins a sha256
of each trace's timestamp and value bytes, and the minutely
``resample_mean`` table with every value at full ``repr`` precision, so
any change to the disk model, the checkpoint schedule or the way the
trace is assembled from the windows shows up as a byte diff.

Update workflow — after an intentional change to the disk model or the
workload, regenerate the capture and call out the diff::

    PYTHONPATH=src python tests/golden/test_fig05_disk_latency.py \\
        > tests/golden/fig05_disk_latency.txt
"""

import hashlib
from pathlib import Path

from repro.experiments import fig05_disk_latency

GOLDEN = Path(__file__).parent / "fig05_disk_latency.txt"


def render() -> str:
    run = fig05_disk_latency.run(duration_s=900.0, rps=1500.0)
    traces = {"default": run.default_latency, "tuned": run.tuned_latency}
    lines = []
    for label, trace in traces.items():
        for part, data in (("times", run.times), ("values", trace)):
            digest = hashlib.sha256(data.tobytes()).hexdigest()
            lines.append(f"{label} {part} n={len(trace)} sha256={digest}")
    minutely = [
        zip(*fig05_disk_latency.resample_mean(run.times, trace, 60.0))
        for trace in traces.values()
    ]
    lines.append("minute default_ms tuned_ms")
    for (t, d), (u, v) in zip(*minutely):
        assert t == u
        lines.append(f"{t!r} {d!r} {v!r}")
    return "\n".join(lines) + "\n"


def test_fig05_traces_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    print(render(), end="")
