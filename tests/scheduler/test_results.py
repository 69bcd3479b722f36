"""Tests for SimulationResult metrics and reporting surfaces."""

import dataclasses

import numpy as np
import pytest

from repro.grid import StaticProvider, SyntheticProvider
from repro.scheduler import (
    RJMS,
    CarbonBackfillPolicy,
    EasyBackfillPolicy,
    FCFSPolicy,
)
from repro.simulator import Cluster, Job, WorkloadConfig, WorkloadGenerator

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


class TestPowerTraceOnRead:
    """The run stores only the cluster's power log; the resampled trace
    is built the first time the result is asked for it."""

    @pytest.mark.parametrize("policy", [FCFSPolicy, EasyBackfillPolicy,
                                        CarbonBackfillPolicy])
    def test_run_builds_no_trace(self, node_power_model, monkeypatch,
                                 policy):
        calls = []
        resample = Cluster.power_trace

        def counted(self, *args):
            calls.append(args)
            return resample(self, *args)
        monkeypatch.setattr(Cluster, "power_trace", counted)
        jobs = WorkloadGenerator(WorkloadConfig(n_jobs=12, max_nodes_log2=3),
                                 seed=5).generate()
        cluster = Cluster(8, node_power_model)
        result = RJMS(cluster, jobs, policy(),
                      provider=SyntheticProvider("DE", seed=1)).run()
        assert calls == []
        assert result.power_segments == cluster.power_segments()

    def test_trace_is_built_once_and_equals_the_cluster_trace(
            self, node_power_model):
        jobs = [Job(job_id=1, submit_time=0.0, nodes_requested=4,
                    runtime_estimate=2 * HOUR, work_seconds=HOUR)]
        cluster = Cluster(8, node_power_model)
        result = RJMS(cluster, jobs, EasyBackfillPolicy()).run()
        trace = result.power_trace
        assert result.power_trace is trace
        expected = cluster.power_trace()
        np.testing.assert_array_equal(trace.values, expected.values)
        assert (trace.step_seconds, trace.start_time, trace.label) == \
            (expected.step_seconds, expected.start_time, expected.label)

    def test_replaced_result_still_has_the_trace(self, node_power_model):
        result = run_two_jobs(node_power_model, StaticProvider(500.0))
        copy = dataclasses.replace(result, total_carbon_kg=0.0)
        np.testing.assert_array_equal(copy.power_trace.values,
                                      result.power_trace.values)
        assert copy.power_trace.energy_kwh() == pytest.approx(
            copy.total_energy_kwh, rel=1e-9)
