"""Tests for the system power manager's budget distribution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.powerstack import DistributionMode, SystemPowerManager
from repro.simulator import Cluster, ComponentPowerModel, Job, NodePowerModel


def running_job(cluster, job_id, nodes, utilization=0.9, submit=0.0):
    j = Job(job_id=job_id, submit_time=submit, nodes_requested=nodes,
            runtime_estimate=7200.0, work_seconds=3600.0,
            utilization=utilization)
    cluster.allocate(job_id, nodes, utilization)
    j.start(0.0, nodes)
    return j


@pytest.fixture
def setup(node_power_model):
    cluster = Cluster(16, node_power_model)
    jobs = [running_job(cluster, 1, 4, 0.9, submit=0.0),
            running_job(cluster, 2, 8, 0.7, submit=10.0)]
    return cluster, jobs


class TestFloorsAndDemands:
    def test_floor(self, setup, node_power_model):
        cluster, jobs = setup
        mgr = SystemPowerManager(cluster)
        assert mgr.job_floor_watts(jobs[0]) == \
            4 * node_power_model.idle_watts

    def test_demand_scales_with_utilization(self, setup):
        cluster, jobs = setup
        mgr = SystemPowerManager(cluster)
        # per-node demand of the 0.9-util job exceeds the 0.7-util job's
        assert mgr.job_demand_watts(jobs[0]) / 4 > \
            mgr.job_demand_watts(jobs[1]) / 8

    def test_idle_floor(self, setup, node_power_model):
        cluster, _ = setup
        mgr = SystemPowerManager(cluster)
        assert mgr.idle_floor_watts() == 4 * node_power_model.idle_watts


class TestDistribute:
    def test_plentiful_budget_uncaps_everyone(self, setup, node_power_model):
        cluster, jobs = setup
        mgr = SystemPowerManager(cluster)
        grants = mgr.distribute(16 * node_power_model.peak_watts, jobs)
        for j in jobs:
            assert grants[j.job_id] == pytest.approx(
                mgr.job_demand_watts(j))

    def test_conservation_under_scarcity(self, setup):
        """Grants sum exactly to budget minus reserves when scarce."""
        cluster, jobs = setup
        mgr = SystemPowerManager(cluster)
        floors = sum(mgr.job_floor_watts(j) for j in jobs)
        budget = floors + mgr.idle_floor_watts() + 500.0
        grants = mgr.distribute(budget, jobs)
        assert sum(grants.values()) == pytest.approx(
            budget - mgr.idle_floor_watts())

    def test_grants_at_least_floor(self, setup):
        cluster, jobs = setup
        mgr = SystemPowerManager(cluster)
        budget = sum(mgr.job_floor_watts(j) for j in jobs) \
            + mgr.idle_floor_watts() + 100.0
        grants = mgr.distribute(budget, jobs)
        for j in jobs:
            assert grants[j.job_id] >= mgr.job_floor_watts(j) - 1e-9

    def test_budget_below_floor_raises(self, setup):
        cluster, jobs = setup
        mgr = SystemPowerManager(cluster)
        with pytest.raises(ValueError, match="malleability"):
            mgr.distribute(100.0, jobs)

    def test_fair_mode_water_filling(self, setup, node_power_model):
        cluster, jobs = setup
        mgr = SystemPowerManager(cluster, DistributionMode.FAIR)
        floors = sum(mgr.job_floor_watts(j) for j in jobs)
        budget = floors + mgr.idle_floor_watts() + 1200.0
        grants = mgr.distribute(budget, jobs)
        # no job granted beyond its demand
        for j in jobs:
            assert grants[j.job_id] <= mgr.job_demand_watts(j) + 1e-6
        assert sum(grants.values()) <= budget - mgr.idle_floor_watts() + 1e-6

    def test_priority_mode_fills_oldest_first(self, setup):
        cluster, jobs = setup
        mgr = SystemPowerManager(cluster, DistributionMode.PRIORITY)
        floors = sum(mgr.job_floor_watts(j) for j in jobs)
        # only enough headroom for part of job 1's demand
        head1 = mgr.job_demand_watts(jobs[0]) - mgr.job_floor_watts(jobs[0])
        budget = floors + mgr.idle_floor_watts() + head1 * 0.5
        grants = mgr.distribute(budget, jobs)
        assert grants[1] > mgr.job_floor_watts(jobs[0])
        assert grants[2] == pytest.approx(mgr.job_floor_watts(jobs[1]))

    def test_empty_job_list(self, setup, node_power_model):
        cluster, _ = setup
        mgr = SystemPowerManager(cluster)
        assert mgr.distribute(16 * node_power_model.peak_watts, []) == {}

    @given(extra=st.floats(0.0, 20000.0))
    @settings(max_examples=30)
    def test_conservation_property(self, extra):
        """For any headroom, grants never exceed budget - idle reserve
        and never fall below floors (budget conservation law)."""
        pm = NodePowerModel(cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2)
        cluster = Cluster(16, pm)
        jobs = [running_job(cluster, 1, 4), running_job(cluster, 2, 8)]
        mgr = SystemPowerManager(cluster)
        floors = sum(mgr.job_floor_watts(j) for j in jobs)
        budget = floors + mgr.idle_floor_watts() + extra
        grants = mgr.distribute(budget, jobs)
        assert sum(grants.values()) <= budget - mgr.idle_floor_watts() + 1e-6
        demands = sum(mgr.job_demand_watts(j) for j in jobs)
        assert sum(grants.values()) <= demands + 1e-6
        for j in jobs:
            assert grants[j.job_id] >= mgr.job_floor_watts(j) - 1e-9
