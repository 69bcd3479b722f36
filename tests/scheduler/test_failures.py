"""Tests for node failures: fail_node and the failure injector."""

import pytest

from repro.accounting import build_job_report
from repro.grid import SyntheticProvider
from repro.scheduler import RJMS, EasyBackfillPolicy
from repro.scheduler.rjms import MAX_FAILURE_REQUEUES
from repro.simulator import (
    Cluster,
    FailureInjector,
    Job,
    JobState,
    NodeState,
    WorkloadConfig,
    WorkloadGenerator,
)

HOUR = 3600.0


def one_job(suspendable=False, nodes=4, work=4 * HOUR):
    return Job(job_id=1, submit_time=0.0, nodes_requested=nodes,
               runtime_estimate=2 * work, work_seconds=work,
               suspendable=suspendable)


class TestFailNode:
    def test_idle_node_goes_down_and_repairs(self, node_power_model):
        cluster = Cluster(8, node_power_model)
        rjms = RJMS(cluster, [one_job(nodes=2, work=HOUR)],
                    EasyBackfillPolicy())

        class FailIdle:
            fired = False

            def on_tick(self, r):
                if not self.fired:
                    # node 7 is idle (job holds nodes 0-1)
                    r.fail_node(7, repair_seconds=2 * HOUR)
                    self.fired = True

        rjms.register_manager(FailIdle())
        rjms.run()
        # repaired by the end of the run
        assert cluster.nodes[7].state is not NodeState.DOWN

    def test_busy_node_kills_and_requeues_job(self, node_power_model):
        cluster = Cluster(8, node_power_model)
        job = one_job()
        rjms = RJMS(cluster, [job], EasyBackfillPolicy())

        class FailBusy:
            fired = False

            def on_tick(self, r):
                if not self.fired and job.state is JobState.RUNNING \
                        and r.now > HOUR:
                    victim = r.cluster.nodes_of_job(1)[0]
                    r.fail_node(victim.node_id, repair_seconds=HOUR)
                    self.fired = True

        rjms.register_manager(FailBusy())
        rjms.run()
        assert job.state is JobState.COMPLETED
        assert job.n_restarts == 1
        # non-checkpointing job lost its progress: total busy time
        # exceeds 2x ... at least work + the lost first hour
        assert job.end_time > 5 * HOUR - 120.0

    def test_suspendable_job_keeps_progress(self, node_power_model):
        cluster = Cluster(8, node_power_model)
        job = one_job(suspendable=True)
        rjms = RJMS(cluster, [job], EasyBackfillPolicy())

        class FailBusy:
            fired = False

            def on_tick(self, r):
                if not self.fired and job.state is JobState.RUNNING \
                        and r.now > HOUR:
                    victim = r.cluster.nodes_of_job(1)[0]
                    r.fail_node(victim.node_id, repair_seconds=HOUR)
                    self.fired = True

        rjms.register_manager(FailBusy())
        rjms.run()
        assert job.state is JobState.COMPLETED
        assert job.n_restarts == 1
        # self-checkpointing job only pays the requeue delay, not a full
        # restart: ends well before the lose-everything case
        assert job.end_time < 5 * HOUR + 3600.0

    def test_requeue_cap_cancels_job(self, node_power_model):
        """A job killed once more than ``MAX_FAILURE_REQUEUES`` times is
        cancelled, keeping what it used, instead of restarting forever."""
        cluster = Cluster(8, node_power_model)
        job = one_job()
        rjms = RJMS(cluster, [job], EasyBackfillPolicy())

        class FailAlways:
            def on_tick(self, r):
                if job.state is JobState.RUNNING:
                    victim = r.cluster.nodes_of_job(1)[0]
                    r.fail_node(victim.node_id, repair_seconds=HOUR)

        rjms.register_manager(FailAlways())
        result = rjms.run()
        assert job.state is JobState.CANCELLED
        assert job.n_restarts == MAX_FAILURE_REQUEUES
        assert result.accounts[1].energy_kwh > 0
        assert not result.completed_jobs
        cluster.check_invariants()

        # idle-off: every watt is a job's, so the per-job carbon, the
        # cancelled job's included, adds up to the total (FailAlways
        # reads ``job``, so it now targets this run's job 1)
        job = one_job()
        short = Job(job_id=2, submit_time=0.0, nodes_requested=2,
                    runtime_estimate=2 * HOUR, work_seconds=HOUR)
        rjms = RJMS(Cluster(8, node_power_model, idle_power_off=True),
                    [job, short], EasyBackfillPolicy(),
                    provider=SyntheticProvider("DE", seed=3))
        rjms.register_manager(FailAlways())
        result = rjms.run()
        assert job.state is JobState.CANCELLED
        assert short.state is JobState.COMPLETED
        assert result.carbon_per_job_kg[1] > 0
        assert sum(result.carbon_per_job_kg.values()) == pytest.approx(
            result.total_carbon_kg, rel=1e-12)
        assert "jobs completed: 1/2  cancelled: 1  " in result.summary()

        # a job report covers one completed job: the cancelled job's
        # start time is its last attempt's, so it gets none
        with pytest.raises(ValueError, match="job 1 was cancelled"):
            build_job_report(job, result.accounts[1], result.provider)
        report = build_job_report(short, result.accounts[2], result.provider)
        assert report.carbon_kg == result.carbon_per_job_kg[2]

    def test_failed_job_leaves_no_live_event(self, node_power_model):
        """The killed job's completion event is cancelled: it would fire
        at 4 h, while the job waits for the node repaired at 11 h."""
        job = one_job()
        rjms = RJMS(Cluster(4, node_power_model), [job],
                    EasyBackfillPolicy())
        rjms.engine.run_until(HOUR)
        rjms.fail_node(0, repair_seconds=10 * HOUR)
        assert job.state is JobState.PENDING
        assert not rjms._job_events
        rjms.engine.run()
        assert job.state is JobState.COMPLETED
        assert job.end_time == pytest.approx(15 * HOUR)

    def test_failure_mid_checkpoint_ends_the_phase(self, node_power_model):
        """A failure during a checkpoint takes the job off its nodes in
        full: the phase ends, and its phase-end event never fires."""
        job = one_job(suspendable=True)
        rjms = RJMS(Cluster(4, node_power_model), [job],
                    EasyBackfillPolicy())
        rjms.engine.run_until(HOUR)
        rjms.suspend_job(job)
        assert rjms.in_phase(job)
        rjms.fail_node(0, repair_seconds=10 * HOUR)
        assert job.state is JobState.PENDING
        assert not rjms.in_phase(job)
        rjms.engine.run()
        assert job.state is JobState.COMPLETED
        assert job.n_suspensions == 0
        rjms.cluster.check_invariants()

    def test_validation(self, node_power_model):
        cluster = Cluster(4, node_power_model)
        rjms = RJMS(cluster, [one_job(nodes=1, work=HOUR)],
                    EasyBackfillPolicy())
        with pytest.raises(ValueError):
            rjms.fail_node(99)
        with pytest.raises(ValueError):
            rjms.fail_node(0, repair_seconds=0.0)


class TestFailureInjector:
    def test_parameters(self):
        with pytest.raises(ValueError):
            FailureInjector(0.0)
        with pytest.raises(ValueError):
            FailureInjector(1e6, repair_seconds=0.0)

    def test_workload_survives_churn(self, node_power_model):
        """Scheduler invariants hold under repeated node failures."""
        cfg = WorkloadConfig(n_jobs=40, mean_interarrival_s=2500.0,
                             max_nodes_log2=2,
                             runtime_median_s=2 * HOUR)
        jobs = WorkloadGenerator(cfg, seed=8).generate()
        cluster = Cluster(16, node_power_model)
        rjms = RJMS(cluster, jobs, EasyBackfillPolicy(),
                    provider=SyntheticProvider("FR", seed=1))
        injector = FailureInjector(mtbf_seconds=40 * HOUR,
                                   repair_seconds=HOUR, seed=5,
                                   max_failures=10)
        rjms.register_manager(injector)
        result = rjms.run()
        assert len(result.completed_jobs) == 40
        assert len(injector.failures) > 0
        cluster.check_invariants()

    def test_deterministic(self, node_power_model):
        def run():
            cfg = WorkloadConfig(n_jobs=20, mean_interarrival_s=2500.0,
                                 max_nodes_log2=2,
                                 runtime_median_s=2 * HOUR)
            jobs = WorkloadGenerator(cfg, seed=8).generate()
            cluster = Cluster(8, node_power_model)
            rjms = RJMS(cluster, jobs, EasyBackfillPolicy())
            inj = FailureInjector(mtbf_seconds=30 * HOUR,
                                  repair_seconds=HOUR, seed=5,
                                  max_failures=5)
            rjms.register_manager(inj)
            rjms.run()
            return inj.failures

        assert run() == run()

    def test_injections_counted_in_obs_registry(self, node_power_model):
        """Every injected node failure is visible to the metrics
        registry (``simulator_failures_injected_total``, labeled by
        kind), not just to the injector's own log."""
        from repro import obs

        obs.reset()
        try:
            cfg = WorkloadConfig(n_jobs=20, mean_interarrival_s=2500.0,
                                 max_nodes_log2=2,
                                 runtime_median_s=2 * HOUR)
            jobs = WorkloadGenerator(cfg, seed=8).generate()
            rjms = RJMS(Cluster(8, node_power_model), jobs,
                        EasyBackfillPolicy())
            inj = FailureInjector(mtbf_seconds=30 * HOUR,
                                  repair_seconds=HOUR, seed=5,
                                  max_failures=5)
            rjms.register_manager(inj)
            rjms.run()
            assert len(inj.failures) > 0
            counter = obs.metrics().counter(
                "simulator.failures_injected_total",
                labels={"kind": "node"})
            assert counter.value == len(inj.failures)
            rendered = obs.metrics().render_prometheus(prefix="repro")
            assert ("repro_simulator_failures_injected_total"
                    '{kind="node"}') in rendered
        finally:
            obs.reset()

    def test_injection_kind_label_is_configurable(self, node_power_model):
        from repro import obs

        assert FailureInjector(1e6, kind="switch").kind == "switch"
        obs.reset()

    def test_failures_cost_energy(self, node_power_model):
        """Restarted work burns energy twice — the carbon cost of
        unreliability (ties §2.3 reliability to §3 operations)."""
        cfg = WorkloadConfig(n_jobs=25, mean_interarrival_s=2500.0,
                             max_nodes_log2=2, runtime_median_s=3 * HOUR)

        def run(with_failures):
            jobs = WorkloadGenerator(cfg, seed=8).generate()
            cluster = Cluster(8, node_power_model, idle_power_off=True)
            rjms = RJMS(cluster, jobs, EasyBackfillPolicy())
            if with_failures:
                rjms.register_manager(FailureInjector(
                    mtbf_seconds=30 * HOUR, repair_seconds=HOUR,
                    seed=5, max_failures=8))
            return rjms.run()

        clean = run(False)
        churned = run(True)
        assert churned.total_energy_kwh > clean.total_energy_kwh
