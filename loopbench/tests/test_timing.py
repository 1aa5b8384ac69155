"""Window timing from recorder stamps, less calibration, and its scaling."""

import pytest

from loopbench.calibrate import REFERENCE_MS, Calibrator, calibration_ms
from loopbench.recorder import WindowRecorder
from loopbench.run import _scaled
from loopbench.scenarios import RepResult, _time_windows


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def blank_result():
    return RepResult(
        mode="counted", setup_s=0.0, setup_cal_ms=0.0, window_ms=[],
        window_cal_ms=[], timed_s=0.0, member_windows=2, requests=0,
        fallbacks=0, crashed_windows=0, applies=0, applies_landed=0,
        canary_rejections=0, downtimes=0, repo_rows_start=0, repo_rows_end=0,
        outputs={},
    )


def test_calibration_time_is_taken_out_of_setup_and_windows():
    clock = FakeClock()
    readings = iter([0.4, 0.6, 0.8, 1.0])

    def measure():
        clock.spend(0.01)
        return next(readings)

    cal = Calibrator(measure=measure, clock=clock)
    rec = WindowRecorder(clock=clock, on_advance=lambda: cal.sample())
    clock.spend(1.0)  # build
    rec.advance(0.0)
    clock.spend(0.5)  # warm-up window
    rec.advance(300.0)
    clock.spend(0.2)  # timed window 1
    rec.advance(600.0)
    clock.spend(0.3)  # timed window 2
    result = blank_result()
    _time_windows(result, rec, cal, begin=0.0, end=clock.now, first=1)
    assert result.setup_s == pytest.approx(1.5)
    assert result.setup_cal_ms == pytest.approx(0.4)
    assert result.window_ms == pytest.approx([200.0, 300.0])
    assert result.window_cal_ms == pytest.approx([0.7, 0.9])
    assert result.timed_s == pytest.approx(0.5)


def test_scaling_to_reference_speed():
    assert _scaled(100.0, REFERENCE_MS) == pytest.approx(100.0)
    # Measured while the host ran at half the reference speed.
    assert _scaled(100.0, 2 * REFERENCE_MS) == pytest.approx(50.0)


def test_calibration_loop_runs():
    assert 0.0 < calibration_ms(repeats=1) < 1000.0
