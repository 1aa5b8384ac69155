"""Serial/parallel parity: experiment outputs must be byte-identical.

The differential harness behind the parallel engine: every experiment
that grew a ``workers`` knob is run once on the in-process sequential
backend and once per process-backend worker count, and the *rendered
artifacts* — result dataclasses, report text, trace JSONL/Chrome
exports, Prometheus metrics text — are compared for equality, for more
than one seed. The golden-trace digests pin the same bytes across
commits; this suite pins them across backends within one commit, and
pins fig09's traced run to its untraced one.
"""

from pathlib import Path

import pytest

from repro.core.director.load_balancer import LeastLoadedBalancer
from repro.experiments import chaos_recovery, trace_run
from repro.experiments import fig09_requests_per_minute as fig09
from repro.obs.trace import TraceRecorder

GOLDEN_DIR = Path(__file__).parent.parent / "golden"

SEEDS = (0, 7)


def _fig09_bytes(seed: int, workers: int) -> bytes:
    run = fig09.run(
        fleet_size=4, hours=1.0, warmup_hours=0.25, seed=seed, workers=workers
    )
    return repr(run).encode()


class TestFig09Parity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_match_serial(self, seed, workers):
        assert _fig09_bytes(seed, workers) == _fig09_bytes(seed, 1)


class TestFig09Window:
    def test_traced_run_matches_untraced(self):
        # Traced shards step the same columnar path; the recorder only
        # observes it.
        kwargs = dict(fleet_size=3, hours=1.0, warmup_hours=0.5)
        traced = fig09.run(recorder=TraceRecorder(), **kwargs)
        assert traced == fig09.run(**kwargs)

    def test_balancer_drains_once_per_window(self, monkeypatch):
        drains: list[float] = []
        drain = LeastLoadedBalancer.drain

        def counted(balancer, elapsed_s):
            drains.append(elapsed_s)
            drain(balancer, elapsed_s)

        monkeypatch.setattr(LeastLoadedBalancer, "drain", counted)
        run = fig09.run(fleet_size=3, hours=1.0, warmup_hours=0.5)
        assert run.tde_total > 0
        assert drains == [300.0] * 18  # (1 h + 0.5 h) / 300 s windows


class TestChaosParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_report_bytes_match_serial(self, seed):
        serial = chaos_recovery.run(seed=seed, quick=True, workers=1).render()
        twin = chaos_recovery.run(seed=seed, quick=True, workers=2).render()
        assert twin == serial


class TestTraceParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_fleet_trace_artifacts_match_serial(self, workers):
        serial = trace_run.run(
            "fleet", seed=7, fleet_size=3, hours=1.0, warmup_hours=0.25
        )
        parallel = trace_run.run(
            "fleet",
            seed=7,
            fleet_size=3,
            hours=1.0,
            warmup_hours=0.25,
            workers=workers,
        )
        assert parallel.jsonl == serial.jsonl
        assert parallel.chrome_json == serial.chrome_json
        assert parallel.metrics_text == serial.metrics_text
        assert parallel.summary() == serial.summary()

    def test_chaos_trace_digest_matches_pinned_golden(self):
        # The golden digest was pinned by a serial run; the parallel
        # backend must land on the identical bytes.
        artifacts = trace_run.run("chaos", seed=0, workers=2)
        pinned = (GOLDEN_DIR / "trace_chaos.sha256").read_text().strip()
        assert artifacts.digest == pinned

    def test_fleet_trace_digest_matches_pinned_golden(self):
        artifacts = trace_run.run(
            "fleet", seed=0, fleet_size=3, hours=1.0, warmup_hours=0.5,
            workers=4,
        )
        pinned = (GOLDEN_DIR / "trace_fleet.sha256").read_text().strip()
        assert artifacts.digest == pinned
