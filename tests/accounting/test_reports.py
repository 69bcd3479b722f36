"""Tests for per-job carbon reports (§3.4)."""

import pytest

from repro.accounting import build_job_report, render_report
from repro.grid import StaticProvider, SyntheticProvider
from repro.scheduler import RJMS, EasyBackfillPolicy
from repro.simulator import Cluster, Job

HOUR = 3600.0


def run_one_job(node_power_model, provider, **job_kw):
    defaults = dict(job_id=1, submit_time=0.0, nodes_requested=4,
                    runtime_estimate=2 * HOUR, work_seconds=HOUR,
                    utilization=1.0)
    defaults.update(job_kw)
    job = Job(**defaults)
    rjms = RJMS(Cluster(8, node_power_model), [job],
                EasyBackfillPolicy(), provider=provider)
    result = rjms.run()
    return job, result


class TestBuildReport:
    def test_energy_carbon_consistent(self, node_power_model):
        provider = StaticProvider(250.0)
        job, result = run_one_job(node_power_model, provider)
        report = build_job_report(job, result.accounts[1], provider)
        assert report.energy_kwh == pytest.approx(
            4 * node_power_model.peak_watts / 1000.0, rel=1e-6)
        assert report.carbon_kg == pytest.approx(
            report.energy_kwh * 250.0 / 1000.0, rel=1e-6)
        assert report.mean_intensity_g_per_kwh == pytest.approx(250.0)

    def test_unfinished_job_rejected(self, node_power_model):
        job = Job(job_id=1, submit_time=0.0, nodes_requested=1,
                  runtime_estimate=HOUR, work_seconds=HOUR)
        from repro.scheduler.rjms import JobAccount
        with pytest.raises(ValueError, match="not finished"):
            build_job_report(job, JobAccount(), StaticProvider(100.0))

    def test_overallocation_waste_reported(self, node_power_model):
        """§3.4: requested-but-unused nodes show up as waste."""
        provider = StaticProvider(250.0)
        job, result = run_one_job(node_power_model, provider, nodes_used=2)
        report = build_job_report(job, result.accounts[1], provider)
        assert report.overallocation_waste_kwh == pytest.approx(
            result.accounts[1].energy_kwh / 2, rel=1e-6)

    def test_no_waste_when_fully_used(self, node_power_model):
        provider = StaticProvider(250.0)
        job, result = run_one_job(node_power_model, provider)
        report = build_job_report(job, result.accounts[1], provider)
        assert report.overallocation_waste_kwh == 0.0

    def test_green_fraction_with_varying_signal(self, node_power_model):
        provider = SyntheticProvider("ES", seed=3)
        job, result = run_one_job(node_power_model, provider,
                                  work_seconds=20 * HOUR,
                                  runtime_estimate=30 * HOUR)
        report = build_job_report(job, result.accounts[1], provider)
        assert 0.0 <= report.green_fraction <= 1.0


class TestRenderReport:
    def test_renders_all_sections(self, node_power_model):
        provider = StaticProvider(250.0)
        job, result = run_one_job(node_power_model, provider, nodes_used=2)
        text = render_report(
            build_job_report(job, result.accounts[1], provider))
        assert "Carbon report for job 1" in text
        assert "kWh" in text and "kgCO2e" in text
        assert "over-allocation waste" in text
        assert "driving" in text
