"""Property: a window's metrics, built on first read, are the eager ones.

The engine hands ``ExecutionResult.metrics`` over unassembled and builds
it from the window's own inputs the first time it is read. Its
definition is ``tests/reference.py``'s :func:`assemble_metrics_eager`,
which builds the vector at once from the result's fields with
``np.mean`` for the disk means. The two must agree bit for bit, in key
order, on every window of a run that includes restarts (a stall and
cold-cache windows), reloads and a degraded disk, for both flavors.

A result whose telemetry is stripped by ``dataclasses.replace`` (the
fault injectors' dead monitoring pipe) keeps the metrics of the
original disk, whether or not they were read before the replace. The
deferred builder appears in neither ``repr`` nor equality.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim import engine
from repro.dbsim.config import KnobConfiguration
from repro.dbsim.engine import ExecutionResult, SimulatedDatabase
from repro.dbsim.memory import swap_factor
from repro.faults.injectors import strip_telemetry
from repro.workloads import TPCCWorkload, YCSBWorkload
from tests.reference import assemble_metrics_eager

_OPS = ("none", "reload", "restart", "degrade", "heal_disk")


def _apply(db: SimulatedDatabase, op: str) -> None:
    if op == "reload":
        name = "work_mem" if db.flavor == "postgres" else "sort_buffer_size"
        knob = db.catalog.get(name)
        value = min(db.config[name] * 2.0, knob.max_value)
        db.apply_config(db.config.with_values({name: value}), mode="reload")
    elif op == "restart":
        db.apply_config(KnobConfiguration(db.catalog), mode="restart")
    elif op == "degrade":
        db.set_disk_degradation(3.0)
    elif op == "heal_disk":
        db.set_disk_degradation(1.0)


def _exact(metrics) -> list[tuple[str, str]]:
    return [(name, float(value).hex()) for name, value in metrics.values.items()]


def _windows(flavor: str, seed: int, workload: str, ops: list[str]):
    """``(result, swap factor)`` for each window of one database's run."""
    db = SimulatedDatabase(flavor, "m4.large", data_size_gb=26.0, seed=seed)
    source = (TPCCWorkload if workload == "tpcc" else YCSBWorkload)(seed=seed + 1)
    for op in ops:
        _apply(db, op)
        swap = swap_factor(db.config, db.vm, db.active_connections)
        yield db.run(source.batch(60.0)), swap


class TestMetricsOnFirstRead:
    @settings(max_examples=20, deadline=None)
    @given(
        flavor=st.sampled_from(("postgres", "mysql")),
        seed=st.integers(min_value=0, max_value=2**16),
        workload=st.sampled_from(("tpcc", "ycsb")),
        ops=st.lists(st.sampled_from(_OPS), min_size=1, max_size=5),
        strip_first=st.booleans(),
    )
    def test_bit_identical_to_eager_assembly(self, flavor, seed, workload, ops, strip_first):
        for result, swap in _windows(flavor, seed, workload, ops):
            want = _exact(assemble_metrics_eager(result, swap))
            if strip_first:
                stripped = strip_telemetry(result)
                assert _exact(stripped.metrics) == want
                assert _exact(result.metrics) == want
            else:
                assert _exact(result.metrics) == want
                assert _exact(strip_telemetry(result).metrics) == want

    def test_built_once_and_only_when_read(self, monkeypatch):
        calls = []
        assemble = engine._assemble_metrics

        def counted(*args):
            calls.append(1)
            return assemble(*args)

        monkeypatch.setattr(engine, "_assemble_metrics", counted)
        db = SimulatedDatabase(seed=3)
        result = db.run(TPCCWorkload(seed=4).batch(60.0))
        assert result.throughput > 0.0
        assert calls == []
        first = result.metrics
        assert result.metrics is first
        assert len(calls) == 1

    def test_repr_and_equality_see_values_not_the_builder(self):
        db = SimulatedDatabase(seed=5)
        result = db.run(TPCCWorkload(seed=6).batch(60.0))
        swap = swap_factor(db.config, db.vm, db.active_connections)
        eager = ExecutionResult(
            **{
                f.name: getattr(result, f.name)
                for f in dataclasses.fields(result)
                if f.name != "metrics"
            },
            metrics=assemble_metrics_eager(result, swap),
        )
        # Compared while *result* is still unread: equality reads it.
        assert result == eager
        text = repr(result)
        assert text == repr(eager)
        assert "metrics=MetricsDelta(values={'xact_commit': " in text
        assert "partial" not in text
        assert "metrics" in [f.name for f in dataclasses.fields(ExecutionResult)]
