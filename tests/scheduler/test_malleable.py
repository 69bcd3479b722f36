"""Tests for the malleability manager (§3.2)."""

import pytest

from repro.scheduler import EasyBackfillPolicy, MalleabilityManager, RJMS
from repro.simulator import (
    Cluster,
    Job,
    JobKind,
    SpeedupModel,
    WorkloadConfig,
    WorkloadGenerator,
)

HOUR = 3600.0


def malleable_workload(n_jobs=40, seed=13):
    cfg = WorkloadConfig(n_jobs=n_jobs, mean_interarrival_s=4000.0,
                         max_nodes_log2=3, runtime_median_s=3 * HOUR,
                         malleable_fraction=1.0)
    return WorkloadGenerator(cfg, seed=seed).generate()


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            MalleabilityManager(0.0)
        with pytest.raises(ValueError):
            MalleabilityManager(1000.0, hysteresis_fraction=0.6)

    def test_budget_callable(self):
        m = MalleabilityManager(lambda t: 500.0 + t)
        assert m.budget_at(100.0) == 600.0
        bad = MalleabilityManager(lambda t: -1.0)
        with pytest.raises(ValueError):
            bad.budget_at(0.0)


class TestResizing:
    def test_shrinks_under_tight_budget(self, node_power_model):
        """With a budget for ~4 busy nodes, a malleable 8-node job gets
        shrunk rather than the system violating the budget."""
        cluster = Cluster(8, node_power_model)
        job = Job(job_id=1, submit_time=0.0, nodes_requested=8,
                  runtime_estimate=20 * HOUR, work_seconds=10 * HOUR,
                  kind=JobKind.MALLEABLE, min_nodes=2, max_nodes=8,
                  utilization=1.0)
        budget = 4 * node_power_model.peak_watts \
            + 4 * node_power_model.idle_watts
        rjms = RJMS(cluster, [job], EasyBackfillPolicy(),
                    tick_seconds=600.0)
        rjms.register_manager(MalleabilityManager(budget))
        rjms.run(until=4 * HOUR)
        assert job.nodes_allocated < 8
        assert cluster.current_power() <= budget * 1.1

    def test_grows_into_headroom(self, node_power_model):
        cluster = Cluster(8, node_power_model)
        job = Job(job_id=1, submit_time=0.0, nodes_requested=2,
                  runtime_estimate=20 * HOUR, work_seconds=10 * HOUR,
                  kind=JobKind.MALLEABLE, min_nodes=1, max_nodes=8,
                  utilization=1.0)
        budget = 8 * node_power_model.peak_watts
        rjms = RJMS(cluster, [job], EasyBackfillPolicy(),
                    tick_seconds=600.0)
        rjms.register_manager(MalleabilityManager(budget))
        rjms.run(until=2 * HOUR)
        assert job.nodes_allocated > 2

    def test_growth_speeds_completion(self, node_power_model):
        def run_one(with_manager):
            cluster = Cluster(8, node_power_model)
            job = Job(job_id=1, submit_time=0.0, nodes_requested=2,
                      runtime_estimate=40 * HOUR, work_seconds=8 * HOUR,
                      kind=JobKind.MALLEABLE, min_nodes=1, max_nodes=8,
                      speedup=SpeedupModel(0.99), utilization=1.0)
            rjms = RJMS(cluster, [job], EasyBackfillPolicy(),
                        tick_seconds=600.0)
            if with_manager:
                rjms.register_manager(MalleabilityManager(
                    8 * node_power_model.peak_watts))
            rjms.run()
            return job.end_time

        assert run_one(True) < run_one(False)

    def test_tracks_varying_budget(self, node_power_model):
        """Malleability follows a carbon-scaled power budget (§3.1+3.2)."""
        cluster = Cluster(16, node_power_model)
        jobs = malleable_workload()
        peak = node_power_model.peak_watts

        def budget(t):
            # alternate between tight and generous every 6 hours
            phase = int(t // (6 * HOUR)) % 2
            return (6 if phase else 14) * peak + 2 * 170.0

        rjms = RJMS(cluster, jobs, EasyBackfillPolicy())
        rjms.register_manager(MalleabilityManager(budget))
        result = rjms.run()
        assert len(result.completed_jobs) == len(jobs)

    def test_respects_min_nodes(self, node_power_model):
        cluster = Cluster(8, node_power_model)
        job = Job(job_id=1, submit_time=0.0, nodes_requested=4,
                  runtime_estimate=20 * HOUR, work_seconds=6 * HOUR,
                  kind=JobKind.MALLEABLE, min_nodes=2, max_nodes=8,
                  utilization=1.0)
        # budget below even min_nodes' draw: manager shrinks to min only
        rjms = RJMS(cluster, [job], EasyBackfillPolicy(),
                    tick_seconds=600.0)
        rjms.register_manager(MalleabilityManager(100.0 + 2 * 170.0))
        rjms.run(until=3 * HOUR)
        assert job.nodes_allocated >= 2
