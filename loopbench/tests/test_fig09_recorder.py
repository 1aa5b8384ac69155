"""The window recorder observes fig09 without changing what it computes."""

import pickle

from loopbench.recorder import WindowRecorder
from repro.experiments import fig09_requests_per_minute as fig09
from repro.parallel.stats import SessionStats

SMALL = dict(fleet_size=3, hours=0.5, warmup_hours=0.25, seed=5)


def test_counting_recorder_leaves_fig09_output_byte_identical():
    plain = fig09.run(**SMALL)
    rec = WindowRecorder()
    counted = fig09.run(**SMALL, recorder=rec, stats=SessionStats())
    assert pickle.dumps(counted) == pickle.dumps(plain)
    assert repr(counted) == repr(plain)
    windows = int((SMALL["hours"] + SMALL["warmup_hours"]) * 12)
    assert len(rec.stamps) == windows
    assert [sim for sim, _ in rec.stamps] == [300.0 * w for w in range(windows)]
    warmup = int(SMALL["warmup_hours"] * 12)
    assert rec.total("repro_tuning_requests_total", warmup) == plain.tde_total


def test_recorder_counts_per_window_and_by_outcome():
    rec = WindowRecorder(clock=iter(range(10)).__next__)
    rec.inc("repro_applies_total", outcome="applied")
    rec.advance(0.0)
    rec.inc("repro_applies_total", instance="a", outcome="rejected")
    rec.advance(300.0)
    rec.inc("repro_applies_total", outcome="applied")
    rec.inc("repro_applies_total", outcome="applied")
    assert rec.per_window("repro_applies_total") == [2, 2]
    assert rec.total("repro_applies_total:applied") == 3
    assert rec.total("repro_applies_total:rejected", first_window=1) == 0
    assert rec.window == 1
    assert rec.stamps == [(0.0, 0), (300.0, 1)]
