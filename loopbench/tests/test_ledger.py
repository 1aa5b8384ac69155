"""Self-time arithmetic on nested spans and the ledger's closure check."""

import pytest

from loopbench.ledger import (
    Span,
    Tracer,
    ledger,
    resolve_instances,
    self_times,
)


class FakeClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


class Tuner:
    def __init__(self, clock):
        self.clock = clock

    def recommend(self, request):
        self.clock.spend(0.030)
        return request


class Director:
    def __init__(self, clock, tuner):
        self.clock, self.tuner = clock, tuner

    def handle_tuning_request(self, request):
        self.clock.spend(0.002)
        self.tuner.recommend(request)
        self.clock.spend(0.001)
        return request


class Slave:
    def __init__(self, clock):
        self.clock = clock

    def run(self, batch):
        self.clock.spend(0.004)


class DFA:
    def __init__(self, clock, slave):
        self.clock, self.slave = clock, slave

    def apply(self, config, instance_id=""):
        self.clock.spend(0.0005)
        self.slave.run(config)  # canary: incumbent
        self.slave.run(config)  # canary: candidate
        self.clock.spend(0.0005)


class Request:
    instance_id = "svc-0001"


def traced_window(clock):
    tuner, slave = Tuner(clock), Slave(clock)
    director, dfa = Director(clock, tuner), DFA(clock, slave)
    tracer = Tracer(lambda: 0, clock=clock)
    tracer.patch(
        director, "handle_tuning_request", "core.director.route",
        instance=lambda request: request.instance_id,
    )
    tracer.patch(tuner, "recommend", "tuners.recommend", instance=None)
    tracer.patch(
        dfa, "apply", "core.apply.dfa",
        instance=lambda *a, instance_id="", **k: instance_id,
    )
    tracer.patch(slave, "run", "dbsim.canary_run", instance=None)
    with tracer:
        clock.spend(0.010)  # facade loop: no span
        director.handle_tuning_request(Request())
        dfa.apply("config", instance_id="svc-0001")
        clock.spend(0.005)
    return tracer, director, dfa


def test_director_self_time_excludes_recommend():
    clock = FakeClock()
    tracer, director, dfa = traced_window(clock)
    spans = tracer.spans
    selfs = self_times(spans)
    route = spans[0]
    assert route.name == "core.director.route"
    assert route.duration == pytest.approx(0.033)
    assert selfs[0] == pytest.approx(0.003)
    assert spans[1].parent == 0 and selfs[1] == pytest.approx(0.030)


def test_apply_self_time_excludes_canary_runs():
    clock = FakeClock()
    tracer, _, _ = traced_window(clock)
    spans = tracer.spans
    apply_index = next(i for i, s in enumerate(spans) if s.name == "core.apply.dfa")
    selfs = self_times(spans)
    assert spans[apply_index].duration == pytest.approx(0.009)
    assert selfs[apply_index] == pytest.approx(0.001)
    canaries = [s for s in spans if s.name == "dbsim.canary_run"]
    assert [s.parent for s in canaries] == [apply_index, apply_index]


def test_ledger_books_layers_and_closes():
    clock = FakeClock()
    tracer, _, _ = traced_window(clock)
    book = ledger(tracer.spans, 0.0, clock.now)
    assert book.wall_s == pytest.approx(0.057)
    assert book.layer_self_s["core.director"] == pytest.approx(0.003)
    assert book.layer_self_s["tuners"] == pytest.approx(0.030)
    assert book.layer_self_s["core.apply"] == pytest.approx(0.001)
    assert book.layer_self_s["dbsim"] == pytest.approx(0.008)
    assert book.unattributed_s == pytest.approx(0.015)
    assert book.closure_error() < 1e-9
    assert [layer for layer, _ in book.ranked()][:2] == ["tuners", "unattributed"]
    assert book.self_s["core.director.route"] == pytest.approx(0.003)


def test_patches_are_restored():
    clock = FakeClock()
    tracer, director, dfa = traced_window(clock)
    assert "handle_tuning_request" not in vars(director)
    assert "apply" not in vars(dfa)
    count = len(tracer.spans)
    director.handle_tuning_request(Request())
    assert len(tracer.spans) == count


def test_instances_resolve_from_parent_or_next_span():
    clock = FakeClock()
    tracer, _, _ = traced_window(clock)
    spans = tracer.spans
    resolve_instances(spans)
    assert {s.instance for s in spans} == {"svc-0001"}
    loose = [
        Span("tuners.repo_add", 0.0, 1.0, -1, 3, None),
        Span("core.director.route", 1.0, 2.0, -1, 3, "svc-0007"),
        Span("tuners.repo_add", 2.0, 3.0, -1, 4, None),
    ]
    resolve_instances(loose)
    assert [s.instance for s in loose] == ["svc-0007", "svc-0007", ""]


def test_overlapping_spans_do_not_close():
    spans = [
        Span("core.tde.inspect", 0.0, 2.0, -1, 0, ""),
        Span("cloud.ingest", 1.0, 3.0, -1, 0, ""),  # overlaps, no parent
    ]
    with pytest.raises(ValueError, match="does not close"):
        ledger(spans, 0.0, 3.0)
