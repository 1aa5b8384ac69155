"""Unit tests for master/slave replicated services."""

import pytest

from repro.dbsim import ReplicatedService


@pytest.fixture
def service():
    return ReplicatedService("postgres", "m4.large", 20.0, replicas=2, seed=5)


class TestTopology:
    def test_nodes_order_slaves_first(self, service):
        nodes = service.nodes
        assert nodes[-1] is service.master
        assert len(nodes) == 3

    def test_invalid_replicas(self):
        with pytest.raises(ValueError):
            ReplicatedService(replicas=-1)

    def test_nodes_have_independent_seeds(self, service, tpcc):
        r1 = service.slaves[0].run(tpcc.batch(10.0))
        r2 = service.slaves[1].run(tpcc.batch(10.0))
        # same model, different noise
        assert r1.data_disk.write_latency.tolist() != (
            r2.data_disk.write_latency.tolist()
        )


class TestConsistency:
    def test_initially_consistent(self, service):
        assert service.configs_consistent()

    def test_drift_detected(self, service):
        service.master.config = service.master.config.with_values({"work_mem": 99})
        assert not service.configs_consistent()

    def test_run_executes_on_master(self, service, tpcc):
        result = service.run(tpcc.batch(10.0))
        assert service.master.clock_s == 10.0
        assert service.slaves[0].clock_s == 0.0
        assert result.throughput > 0
