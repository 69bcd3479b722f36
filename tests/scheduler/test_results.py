"""Tests for SimulationResult metrics and reporting surfaces."""

import numpy as np
import pytest

from repro.grid import StaticProvider, SyntheticProvider
from repro.scheduler import RJMS, EasyBackfillPolicy
from repro.simulator import Cluster, Job

HOUR = 3600.0


def run_two_jobs(node_power_model, provider=None):
    jobs = [
        Job(job_id=1, submit_time=0.0, nodes_requested=4,
            runtime_estimate=2 * HOUR, work_seconds=HOUR,
            utilization=1.0),
        Job(job_id=2, submit_time=0.0, nodes_requested=8,
            runtime_estimate=2 * HOUR, work_seconds=HOUR,
            utilization=1.0),
    ]
    rjms = RJMS(Cluster(8, node_power_model), jobs,
                EasyBackfillPolicy(), provider=provider)
    return rjms.run()


class TestSimulationResult:
    def test_carbon_per_job(self, node_power_model):
        result = run_two_jobs(node_power_model, StaticProvider(500.0))
        per_job = result.carbon_per_job_kg
        assert set(per_job) == {1, 2}
        # job 2 used twice the nodes for the same time
        assert per_job[2] == pytest.approx(2 * per_job[1], rel=1e-6)

    def test_mean_turnaround(self, node_power_model):
        result = run_two_jobs(node_power_model)
        # job 1 runs 0..1h; job 2 waits 1h (8>4 free), runs 1..2h
        assert result.mean_turnaround_s == pytest.approx(
            (HOUR + 2 * HOUR) / 2, rel=1e-6)

    def test_p95_wait(self, node_power_model):
        result = run_two_jobs(node_power_model)
        assert result.p95_wait_s <= HOUR + 1.0
        assert result.p95_wait_s >= result.mean_wait_s

    def test_power_trace_label(self, node_power_model):
        result = run_two_jobs(node_power_model)
        assert result.power_trace.label == "cluster"
        assert result.power_trace.peak_power() <= \
            8 * node_power_model.peak_watts + 1e-9

    def test_telemetry_intensity_sensor(self, node_power_model):
        provider = SyntheticProvider("FR", seed=0)
        result = run_two_jobs(node_power_model, provider)
        _, vals = result.telemetry.series("grid.intensity")
        assert vals.size > 0
        # intensity samples come from the provider's actual signal
        assert vals.min() >= 0
        assert result.telemetry.unit_of("grid.intensity") == "gCO2/kWh"

    def test_nodes_busy_sensor_bounded(self, node_power_model):
        result = run_two_jobs(node_power_model)
        _, busy = result.telemetry.series("cluster.nodes_busy")
        assert busy.max() <= 8
        assert busy.min() >= 0

    def test_provider_is_carried(self, node_power_model):
        """The result carries the serving-layer front of the provider
        it was given (value-transparent, so lookups are unchanged)."""
        from repro.service import CarbonService

        provider = StaticProvider(123.0)
        result = run_two_jobs(node_power_model, provider)
        assert isinstance(result.provider, CarbonService)
        assert result.provider.backend is provider
        assert result.provider.intensity_at(0.0) == 123.0

    def test_prewrapped_service_not_double_wrapped(self, node_power_model):
        from repro.service import CarbonService

        service = CarbonService(StaticProvider(123.0))
        result = run_two_jobs(node_power_model, service)
        assert result.provider is service
        assert not isinstance(result.provider.backend, CarbonService)
