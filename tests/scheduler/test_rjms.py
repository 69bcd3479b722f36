"""Tests for the RJMS core: lifecycle, accounting, suspend/resume, caps."""

import numpy as np
import pytest

from repro.grid import StaticProvider, SyntheticProvider
from repro.scheduler import RJMS, EasyBackfillPolicy, FCFSPolicy
from repro.simulator import (
    CheckpointModel,
    Cluster,
    Job,
    JobState,
)

HOUR = 3600.0


def make_jobs(*specs):
    """specs: (submit, nodes, work[, kwargs])."""
    jobs = []
    for i, spec in enumerate(specs, 1):
        submit, nodes, work = spec[:3]
        kw = spec[3] if len(spec) > 3 else {}
        jobs.append(Job(job_id=i, submit_time=submit, nodes_requested=nodes,
                        runtime_estimate=work * 1.5, work_seconds=work,
                        **kw))
    return jobs


def make_rjms(node_power_model, jobs, n_nodes=8, provider=None, **kw):
    return RJMS(Cluster(n_nodes, node_power_model), jobs, FCFSPolicy(),
                provider=provider, **kw)


class TestBasicLifecycle:
    def test_single_job_runs_and_completes(self, node_power_model):
        jobs = make_jobs((0.0, 4, HOUR))
        rjms = make_rjms(node_power_model, jobs)
        result = rjms.run()
        j = jobs[0]
        assert j.state is JobState.COMPLETED
        assert j.start_time == pytest.approx(0.0)
        assert j.end_time == pytest.approx(HOUR)
        assert len(result.completed_jobs) == 1

    def test_jobs_queue_when_full(self, node_power_model):
        jobs = make_jobs((0.0, 8, HOUR), (0.0, 8, HOUR))
        rjms = make_rjms(node_power_model, jobs)
        rjms.run()
        assert jobs[0].end_time == pytest.approx(HOUR)
        assert jobs[1].start_time == pytest.approx(HOUR)
        assert jobs[1].end_time == pytest.approx(2 * HOUR)

    def test_duplicate_ids_rejected(self, node_power_model):
        jobs = make_jobs((0.0, 1, HOUR))
        dup = make_jobs((0.0, 1, HOUR))
        with pytest.raises(ValueError, match="duplicate"):
            make_rjms(node_power_model, jobs + dup)

    def test_unrunnable_job_rejected_eagerly(self, node_power_model):
        """A job wider than the cluster would deadlock the tick loop —
        the RJMS must refuse it at construction."""
        jobs = make_jobs((0.0, 16, HOUR))
        with pytest.raises(ValueError, match="never.*start|deadlock"):
            make_rjms(node_power_model, jobs, n_nodes=8)

    def test_moldable_policy_accepts_wide_resizable_job(self,
                                                        node_power_model):
        from repro.scheduler import MoldableEasyBackfillPolicy
        from repro.simulator import JobKind
        job = Job(job_id=1, submit_time=0.0, nodes_requested=16,
                  runtime_estimate=2 * HOUR, work_seconds=HOUR,
                  kind=JobKind.MALLEABLE, min_nodes=2, max_nodes=16)
        rjms = RJMS(Cluster(8, node_power_model), [job],
                    MoldableEasyBackfillPolicy(min_start_fraction=0.1))
        result = rjms.run()
        assert len(result.completed_jobs) == 1

    def test_cannot_run_twice(self, node_power_model):
        rjms = make_rjms(node_power_model, make_jobs((0.0, 1, HOUR)))
        rjms.run()
        with pytest.raises(RuntimeError):
            rjms.run()

    def test_run_until_leaves_unfinished(self, node_power_model):
        jobs = make_jobs((0.0, 4, 10 * HOUR))
        rjms = make_rjms(node_power_model, jobs)
        result = rjms.run(until=HOUR)
        assert jobs[0].state is JobState.RUNNING
        assert result.total_energy_kwh > 0


class TestTick:
    def test_tick_chain_stops_when_only_cancelled_events_remain(
            self, node_power_model):
        """A cancelled event left in the heap must not keep the
        management tick alive: the run ends at the first tick after the
        last job, not at the cancelled event's time."""
        rjms = make_rjms(node_power_model, make_jobs((0.0, 1, HOUR)))
        stale = rjms.engine.schedule_at(100 * HOUR, lambda: None)
        stale.cancel()
        rjms.run()
        assert rjms.now == HOUR
        assert rjms.engine.peek_time() is None
        # arrival, completion, and ticks at 900 s .. 3600 s; the last
        # tick runs after the completion and does not reschedule
        assert rjms.engine.processed == 2 + 4

    def test_tick_keeps_running_while_live_events_remain(
            self, node_power_model):
        rjms = make_rjms(node_power_model, make_jobs((0.0, 1, HOUR)))
        fired = []
        rjms.engine.schedule_at(10 * HOUR, lambda: fired.append(rjms.now))
        rjms.run()
        assert fired == [10 * HOUR]


class TestExpectedEnds:
    def test_within_estimate_ends_at_estimate(self, node_power_model):
        jobs = make_jobs((0.0, 1, 2 * HOUR))  # estimate 3 h
        rjms = make_rjms(node_power_model, jobs)
        rjms.run(until=HOUR)
        assert rjms._expected_ends() == {1: 3 * HOUR}

    def test_overran_estimate_ends_in_60_s(self, node_power_model):
        jobs = [Job(job_id=1, submit_time=0.0, nodes_requested=1,
                    runtime_estimate=HOUR, work_seconds=3 * HOUR)]
        rjms = make_rjms(node_power_model, jobs)
        rjms.run(until=2 * HOUR)
        assert jobs[0].state is JobState.RUNNING
        assert rjms._expected_ends() == {1: 2 * HOUR + 60.0}


class TestEnergyCarbonAccounting:
    def test_one_intensity_integral_per_accrual_step(self, node_power_model):
        """All running jobs share one step, so accrual asks the provider
        for one integral per step, however many jobs run, and builds no
        history window (neither FCFS nor EASY asks for one either)."""
        for policy in (FCFSPolicy(), EasyBackfillPolicy()):
            jobs = make_jobs(*[(60.0 * i, 2, HOUR * (1 + i))
                               for i in range(4)])
            rjms = RJMS(Cluster(8, node_power_model), jobs, policy,
                        provider=SyntheticProvider("DE", seed=1))
            integrals, windows = [], []
            integrate = rjms.provider.integrate_intensity
            rjms.provider.integrate_intensity = lambda t0, t1: \
                integrals.append((t0, t1)) or integrate(t0, t1)
            history = rjms.provider.history
            rjms.provider.history = \
                lambda t0, t1: windows.append((t0, t1)) or history(t0, t1)
            rjms.run()
            segments = rjms.cluster.power_segments()
            assert integrals == [(t0, t1) for t0, t1, _ in segments]
            assert windows == []

    def test_cluster_energy_exact(self, node_power_model):
        jobs = make_jobs((0.0, 4, HOUR, dict(utilization=1.0)))
        rjms = make_rjms(node_power_model, jobs, n_nodes=4)
        result = rjms.run()
        # 4 busy nodes at peak for 1 h
        expected = 4 * node_power_model.peak_watts / 1000.0
        assert result.total_energy_kwh == pytest.approx(expected, rel=1e-6)

    def test_job_account_energy(self, node_power_model):
        jobs = make_jobs((0.0, 2, HOUR, dict(utilization=1.0)))
        rjms = make_rjms(node_power_model, jobs, n_nodes=8)
        result = rjms.run()
        acc = result.accounts[1]
        assert acc.energy_kwh == pytest.approx(
            2 * node_power_model.peak_watts / 1000.0, rel=1e-6)

    def test_carbon_uses_provider(self, node_power_model):
        jobs = make_jobs((0.0, 4, HOUR, dict(utilization=1.0)))
        provider = StaticProvider(250.0)
        rjms = make_rjms(node_power_model, jobs, n_nodes=4,
                         provider=provider)
        result = rjms.run()
        assert result.total_carbon_kg == pytest.approx(
            result.total_energy_kwh * 250.0 / 1000.0, rel=1e-6)

    def test_job_energy_leq_cluster_energy(self, node_power_model,
                                           small_workload):
        rjms = make_rjms(node_power_model, small_workload, n_nodes=8)
        result = rjms.run()
        job_sum = sum(a.energy_kwh for a in result.accounts.values())
        assert job_sum <= result.total_energy_kwh + 1e-6

    def test_zero_intensity_zero_carbon(self, node_power_model):
        jobs = make_jobs((0.0, 1, HOUR))
        result = make_rjms(node_power_model, jobs).run()
        assert result.total_carbon_kg == 0.0


class TestCaps:
    def test_cap_extends_runtime(self, node_power_model):
        jobs = make_jobs((0.0, 4, 2 * HOUR, dict(utilization=1.0)))
        rjms = make_rjms(node_power_model, jobs, n_nodes=4)
        job = jobs[0]

        class CapAtTick:
            fired = False

            def on_tick(self, r):
                if not self.fired and job.state is JobState.RUNNING:
                    r.set_job_cap(job, 400.0)
                    self.fired = True

        rjms.register_manager(CapAtTick())
        rjms.run()
        assert job.end_time > 2 * HOUR + 60.0  # slowed down

    def test_cap_reduces_power(self, node_power_model):
        jobs = make_jobs((0.0, 4, 4 * HOUR, dict(utilization=1.0)))
        rjms = make_rjms(node_power_model, jobs, n_nodes=4)
        job = jobs[0]

        class CapAtTick:
            fired = False

            def on_tick(self, r):
                if not self.fired and job.state is JobState.RUNNING:
                    before = r.cluster.current_power()
                    r.set_job_cap(job, 400.0)
                    assert r.cluster.current_power() < before
                    self.fired = True

        mgr = CapAtTick()
        rjms.register_manager(mgr)
        rjms.run()
        assert mgr.fired

    def test_cap_on_pending_job_rejected(self, node_power_model):
        jobs = make_jobs((10 * HOUR, 1, HOUR))
        rjms = make_rjms(node_power_model, jobs)
        with pytest.raises(ValueError):
            rjms.set_job_cap(jobs[0], 400.0)


class TestSuspendResume:
    def make_suspendable(self, work=4 * HOUR):
        return make_jobs((0.0, 4, work, dict(suspendable=True)))

    def test_suspend_then_resume_completes(self, node_power_model):
        jobs = self.make_suspendable()
        ckpt = CheckpointModel(state_gb_per_node=10.0, write_bw_gb_s=1.0,
                               read_bw_gb_s=2.0, fixed_overhead_s=10.0)
        rjms = make_rjms(node_power_model, jobs, n_nodes=4,
                         checkpoint_model=ckpt)
        job = jobs[0]

        class SuspendOnce:
            state = 0

            def on_tick(self, r):
                if self.state == 0 and job.state is JobState.RUNNING \
                        and r.now > HOUR:
                    r.suspend_job(job)
                    self.state = 1
                elif self.state == 1 and job.state is JobState.SUSPENDED \
                        and r.now > 2 * HOUR:
                    r.resume_job(job)
                    self.state = 2

        rjms.register_manager(SuspendOnce())
        rjms.run()
        assert job.state is JobState.COMPLETED
        assert job.n_suspensions == 1
        assert job.suspended_seconds > 0
        # suspension + overheads stretch the end time past pure work
        assert job.end_time > 4 * HOUR + job.suspended_seconds - 1.0

    def test_suspended_job_frees_nodes(self, node_power_model):
        jobs = self.make_suspendable() + make_jobs((0.0, 4, HOUR))
        jobs[1].job_id = 2
        ckpt = CheckpointModel(fixed_overhead_s=5.0, state_gb_per_node=1.0)
        rjms = make_rjms(node_power_model, jobs, n_nodes=4,
                         checkpoint_model=ckpt)
        first, second = jobs

        class SuspendFirst:
            fired = False

            def on_tick(self, r):
                if not self.fired and first.state is JobState.RUNNING \
                        and r.now > 0.5 * HOUR:
                    r.suspend_job(first)
                    self.fired = True
                elif (first.state is JobState.SUSPENDED
                        and second.state is JobState.COMPLETED
                        and r.cluster.n_free >= 4):
                    r.resume_job(first)

        rjms.register_manager(SuspendFirst())
        rjms.run()
        assert second.state is JobState.COMPLETED
        assert first.state is JobState.COMPLETED
        # the second job ran while the first was suspended
        assert second.start_time < first.end_time

    def test_unsuspendable_rejected(self, node_power_model):
        jobs = make_jobs((0.0, 2, HOUR))
        rjms = make_rjms(node_power_model, jobs)
        with pytest.raises(ValueError):
            rjms.suspend_job(jobs[0])

    def test_resume_needs_free_nodes(self, node_power_model):
        jobs = self.make_suspendable()
        rjms = make_rjms(node_power_model, jobs, n_nodes=4)
        with pytest.raises(ValueError):
            rjms.resume_job(jobs[0])  # not even suspended


class TestResultMetrics:
    def test_summary_renders(self, node_power_model, small_workload):
        result = make_rjms(node_power_model, small_workload).run()
        s = result.summary()
        assert "carbon" in s and "makespan" in s

    def test_wait_statistics(self, node_power_model):
        jobs = make_jobs((0.0, 8, HOUR), (0.0, 8, HOUR))
        result = make_rjms(node_power_model, jobs).run()
        assert result.mean_wait_s == pytest.approx(HOUR / 2)
        assert result.p95_wait_s <= HOUR

    def test_telemetry_recorded(self, node_power_model, small_workload):
        result = make_rjms(node_power_model, small_workload).run()
        assert "cluster.power" in result.telemetry.sensors()
        times, vals = result.telemetry.series("cluster.power")
        assert len(vals) > 10
