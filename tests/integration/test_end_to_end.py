"""Integration tests: full pipelines across subsystems."""

import copy

import numpy as np
import pytest

from repro.accounting import (
    CoreHourLedger,
    GreenDiscountPolicy,
    build_job_report,
    charge_with_incentive,
    render_report,
)
from repro.core import FootprintModel
from repro.embodied import system_embodied_breakdown, SUPERMUC_NG
from repro.grid import SyntheticProvider, find_green_periods
from repro.powerstack import LinearScalingPolicy, SiteController
from repro.scheduler import (
    RJMS,
    CarbonBackfillPolicy,
    CarbonCheckpointPolicy,
    EasyBackfillPolicy,
    MalleabilityManager,
)
from repro.simulator import Cluster, JobState, WorkloadConfig, WorkloadGenerator

HOUR = 3600.0


@pytest.fixture
def workload():
    cfg = WorkloadConfig(n_jobs=80, mean_interarrival_s=3000.0,
                         max_nodes_log2=3, runtime_median_s=3 * HOUR,
                         suspendable_fraction=0.5, malleable_fraction=0.3,
                         overallocation_fraction=0.3)
    return WorkloadGenerator(cfg, seed=31).generate()


class TestFullStack:
    def test_everything_together(self, node_power_model, workload):
        """Carbon backfill + checkpointing + malleability + carbon-scaled
        PowerStack, all at once, on one cluster — the paper's complete
        §3 vision as a single run."""
        cluster = Cluster(16, node_power_model)
        provider = SyntheticProvider("DE", seed=11)
        rjms = RJMS(cluster, copy.deepcopy(workload),
                    CarbonBackfillPolicy(max_delay_s=12 * HOUR),
                    provider=provider)
        pm = node_power_model
        policy = LinearScalingPolicy(
            min_watts=8 * pm.peak_watts + 8 * pm.idle_watts,
            max_watts=16 * pm.peak_watts,
            ci_low=350.0, ci_high=500.0)
        rjms.register_manager(SiteController(policy, cluster))
        rjms.register_manager(CarbonCheckpointPolicy())
        rjms.register_manager(MalleabilityManager(
            lambda t: policy.budget(provider, t)))
        result = rjms.run()
        assert len(result.completed_jobs) == len(workload)
        assert result.total_carbon_kg > 0
        cluster.check_invariants()

    def test_job_reports_for_whole_run(self, node_power_model, workload):
        """Every completed job yields a valid carbon report (§3.4)."""
        provider = SyntheticProvider("ES", seed=2)
        rjms = RJMS(Cluster(16, node_power_model), copy.deepcopy(workload),
                    EasyBackfillPolicy(), provider=provider)
        result = rjms.run()
        for job in result.completed_jobs:
            report = build_job_report(job, result.accounts[job.job_id],
                                      provider)
            assert report.carbon_kg >= 0
            text = render_report(report)
            assert f"job {job.job_id}" in text

    def test_incentive_accounting_for_whole_run(self, node_power_model,
                                                workload):
        """§3.4 + §3.3 synergy: bill every job with green discounts."""
        provider = SyntheticProvider("ES", seed=2)
        rjms = RJMS(Cluster(16, node_power_model), copy.deepcopy(workload),
                    EasyBackfillPolicy(), provider=provider)
        result = rjms.run()
        ledger = CoreHourLedger(cores_per_node=48)
        for p in {j.project for j in result.jobs}:
            ledger.open_project(p, 1e9)
        policy = GreenDiscountPolicy(green_rate=0.5)
        t_end = max(j.end_time for j in result.completed_jobs)
        signal = provider.history(0.0, t_end + 1.0)
        total_discount = 0.0
        for job in result.completed_jobs:
            inc = charge_with_incentive(
                [(job.start_time, job.end_time)], job.nodes_requested,
                48, signal, policy)
            ledger.charge_job(job.job_id, job.project,
                              inc.raw_core_hours, inc.billed_core_hours,
                              inc.green_fraction)
            total_discount += inc.discount_core_hours
        assert ledger.total_discounts() == pytest.approx(total_discount)
        assert total_discount > 0  # someone ran in a green period

    def test_simulated_footprint_matches_model(self, node_power_model):
        """Cross-check: a year-long simulated operational footprint at
        constant intensity equals the closed-form FootprintModel."""
        from repro.grid import StaticProvider

        cfg = WorkloadConfig(n_jobs=20, mean_interarrival_s=2000.0,
                             max_nodes_log2=2, runtime_median_s=2 * HOUR)
        jobs = WorkloadGenerator(cfg, seed=1).generate()
        provider = StaticProvider(300.0)
        rjms = RJMS(Cluster(8, node_power_model), jobs,
                    EasyBackfillPolicy(), provider=provider)
        result = rjms.run()
        # closed form: energy * intensity
        assert result.total_carbon_kg == pytest.approx(
            result.total_energy_kwh * 300.0 / 1000.0, rel=1e-9)

    def test_embodied_plus_operational_report(self):
        """§2+§3 together: whole-system footprint from both halves."""
        embodied = system_embodied_breakdown(SUPERMUC_NG)["total"]
        model = FootprintModel(embodied_kg=embodied,
                               avg_power_watts=SUPERMUC_NG.avg_power_mw * 1e6,
                               lifetime_years=SUPERMUC_NG.lifetime_years,
                               grid_intensity_g_per_kwh=20.0)  # LRZ hydro
        report = model.lifetime_report()
        assert report.total_kg > embodied
        # at LRZ's 20 g/kWh the embodied share is substantial (>10%)
        assert report.embodied_share > 0.1


class TestDeterminism:
    def test_identical_runs_identical_results(self, node_power_model,
                                              workload):
        def run():
            provider = SyntheticProvider("DE", seed=11)
            rjms = RJMS(Cluster(16, node_power_model),
                        copy.deepcopy(workload),
                        CarbonBackfillPolicy(max_delay_s=12 * HOUR),
                        provider=provider)
            rjms.register_manager(CarbonCheckpointPolicy())
            return rjms.run()

        r1, r2 = run(), run()
        assert r1.total_carbon_kg == r2.total_carbon_kg
        assert r1.total_energy_kwh == r2.total_energy_kwh
        assert [j.end_time for j in r1.jobs] == \
            [j.end_time for j in r2.jobs]
