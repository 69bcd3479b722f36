"""Tests for the site controller's closed control loop."""

import copy

import numpy as np
import pytest

from repro.grid import SyntheticProvider
from repro.powerstack import (
    DistributionMode,
    LinearScalingPolicy,
    SiteController,
    StaticBudgetPolicy,
)
from repro.scheduler import RJMS, EasyBackfillPolicy
from repro.simulator import Cluster, WorkloadConfig, WorkloadGenerator
from tests.integration.test_properties import assert_telemetry_reconciles

HOUR = 3600.0


@pytest.fixture
def workload():
    cfg = WorkloadConfig(n_jobs=60, mean_interarrival_s=1500.0,
                         max_nodes_log2=3, runtime_median_s=3 * HOUR)
    return WorkloadGenerator(cfg, seed=21).generate()


def run(node_power_model, jobs, policy, **site_kw):
    cluster = Cluster(16, node_power_model)
    provider = SyntheticProvider("DE", seed=4)
    rjms = RJMS(cluster, copy.deepcopy(jobs), EasyBackfillPolicy(),
                provider=provider)
    site = SiteController(policy, cluster, **site_kw)
    rjms.register_manager(site)
    return rjms.run(), site


class TestStaticBudget:
    def test_power_respects_budget(self, node_power_model, workload):
        budget = 10 * node_power_model.peak_watts \
            + 6 * node_power_model.idle_watts
        result, site = run(node_power_model, workload,
                           StaticBudgetPolicy(budget))
        # the exact integrated power trace never exceeds the budget
        # (caps are re-applied the moment any job starts)
        assert result.power_trace.peak_power() <= budget * 1.001
        _, power = result.telemetry.series("cluster.power")
        assert np.max(power) <= budget * 1.001
        # caps bound: some job ran slower than its work at full speed;
        # each capped segment is recorded once, so telemetry reconciles
        assert any(j.end_time - j.start_time > j.work_seconds + 1.0
                   for j in result.jobs)
        assert_telemetry_reconciles(result, site.sysmgr.cluster.last_accrual)

    def test_all_jobs_complete_under_caps(self, node_power_model, workload):
        budget = 8 * node_power_model.peak_watts \
            + 8 * node_power_model.idle_watts
        result, _ = run(node_power_model, workload,
                        StaticBudgetPolicy(budget))
        assert len(result.completed_jobs) == len(workload)

    def test_tight_budget_slows_throughput(self, node_power_model,
                                           workload):
        loose, _ = run(node_power_model, workload,
                       StaticBudgetPolicy(16 * node_power_model.peak_watts))
        tight, _ = run(node_power_model, workload, StaticBudgetPolicy(
            4 * node_power_model.peak_watts
            + 12 * node_power_model.idle_watts))
        assert tight.makespan_s > loose.makespan_s

    def test_budget_log_recorded(self, node_power_model, workload):
        _, site = run(node_power_model, workload,
                      StaticBudgetPolicy(1e6))
        assert len(site.budget_log) > 10
        assert all(b == 1e6 for _, b in site.budget_log)


class TestCarbonScaledBudget:
    def test_budget_follows_intensity(self, node_power_model, workload):
        pm = node_power_model
        policy = LinearScalingPolicy(
            min_watts=6 * pm.peak_watts + 10 * pm.idle_watts,
            max_watts=16 * pm.peak_watts,
            ci_low=330.0, ci_high=510.0)
        result, site = run(node_power_model, workload, policy)
        times = np.array([t for t, _ in site.budget_log])
        budgets = np.array([b for _, b in site.budget_log])
        provider = result.provider
        cis = np.array([provider.intensity_at(t) for t in times])
        # green hours get strictly more budget than red hours
        green = budgets[cis <= 330.0]
        red = budgets[cis >= 510.0]
        if green.size and red.size:
            assert green.min() > red.max()

    def test_completes_workload(self, node_power_model, workload):
        pm = node_power_model
        policy = LinearScalingPolicy(
            min_watts=6 * pm.peak_watts + 10 * pm.idle_watts,
            max_watts=16 * pm.peak_watts,
            ci_low=330.0, ci_high=510.0)
        result, _ = run(node_power_model, workload, policy)
        assert len(result.completed_jobs) == len(workload)


class TestDistributionModes:
    @pytest.mark.parametrize("mode", list(DistributionMode))
    def test_all_modes_run(self, node_power_model, workload, mode):
        budget = 8 * node_power_model.peak_watts \
            + 8 * node_power_model.idle_watts
        result, _ = run(node_power_model, workload,
                        StaticBudgetPolicy(budget), mode=mode)
        assert len(result.completed_jobs) == len(workload)

    def test_min_cap_fraction_floor(self, node_power_model, workload):
        budget = 4 * node_power_model.peak_watts \
            + 12 * node_power_model.idle_watts
        result, _ = run(node_power_model, workload,
                        StaticBudgetPolicy(budget), min_cap_fraction=0.5)
        assert len(result.completed_jobs) == len(workload)
