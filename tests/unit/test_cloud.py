"""Unit tests for the cloud layer: monitoring, provisioner, fleet."""

import pytest

from repro.cloud import (
    PAPER_PLAN_MIX,
    FleetSpec,
    MonitoringAgent,
    Provisioner,
    build_member,
)
from repro.common.rng import stream_root


class TestMonitoringAgent:
    def test_ingest_accumulates(self, pg_db, tpcc):
        agent = MonitoringAgent("db0")
        agent.ingest(pg_db.run(tpcc.batch(10.0)))
        agent.ingest(pg_db.run(tpcc.batch(10.0)))
        assert len(agent.write_latency) == 20
        assert len(agent.throughput) == 2


class TestProvisioner:
    def test_provision_and_get(self):
        prov = Provisioner(seed=0)
        d = prov.provision(plan="t2.medium", flavor="mysql", data_size_gb=5.0)
        assert d.service.flavor == "mysql"
        assert d.plan == "t2.medium"

    def test_ids_unique(self):
        prov = Provisioner(seed=0)
        ids = {prov.provision().instance_id for _ in range(10)}
        assert len(ids) == 10

    def test_credentials_assigned(self):
        d = Provisioner(seed=1).provision()
        assert d.credentials.instance_id == d.instance_id
        assert len(d.credentials.password) == 16


class TestBuildMember:
    def test_plan_mix_cycles(self):
        spec = FleetSpec(size=7, root=stream_root(0))
        plans = [build_member(spec, i).deployment.plan for i in range(7)]
        assert plans[:5] == list(PAPER_PLAN_MIX)
        assert plans[5] == PAPER_PLAN_MIX[0]

    def test_members_have_distinct_rates(self):
        spec = FleetSpec(size=6, root=stream_root(2))
        rates = {build_member(spec, i).workload.rps for i in range(6)}
        assert len(rates) == 6

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            FleetSpec(size=0)
        with pytest.raises(ValueError):
            build_member(FleetSpec(size=2), 2)
