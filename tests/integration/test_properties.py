"""Cross-cutting property-based tests (hypothesis) on system invariants."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import units
from repro.grid import StaticProvider, SyntheticProvider
from repro.scheduler import (
    RJMS,
    CarbonBackfillPolicy,
    CarbonCheckpointPolicy,
    EasyBackfillPolicy,
    FCFSPolicy,
    MoldableEasyBackfillPolicy,
    SchedulerPolicy,
)
from repro.scheduler.backfill import head_reservation
from repro.simulator import (
    Cluster,
    ComponentPowerModel,
    JobState,
    NodePowerModel,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.simulator.failures import FailureInjector

HOUR = 3600.0

SIM_SETTINGS = settings(max_examples=8, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


def power_model():
    return NodePowerModel(cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2)


def workload(seed, n_jobs=25, suspendable=0.0, malleable=0.0,
             mean_interarrival_s=2000.0):
    cfg = WorkloadConfig(n_jobs=n_jobs,
                         mean_interarrival_s=mean_interarrival_s,
                         max_nodes_log2=3, runtime_median_s=2 * HOUR,
                         suspendable_fraction=suspendable,
                         malleable_fraction=malleable)
    return WorkloadGenerator(cfg, seed=seed).generate()


def assert_telemetry_reconciles(result, end_s):
    """The RJMS's telemetry is a view of its accounting: timestamps
    strictly increase, and the zero-order-hold integrals of power and of
    power x intensity up to the last accrual time ``end_s`` equal the
    energy and carbon totals."""
    db = result.telemetry
    times, watts = db.series("cluster.power")
    intensity_times, intensity = db.series("grid.intensity")
    assert np.all(np.diff(times) > 0)
    assert np.array_equal(times, intensity_times)
    dt = np.diff(np.append(times, end_s))
    energy_kwh = np.dot(watts, dt) / units.SECONDS_PER_HOUR \
        / units.WATTS_PER_KW
    carbon_kg = np.dot(watts * intensity, dt) / units.SECONDS_PER_HOUR \
        / units.WATTS_PER_KW / units.GRAMS_PER_KG
    assert energy_kwh == pytest.approx(result.total_energy_kwh, rel=1e-12)
    assert carbon_kg == pytest.approx(result.total_carbon_kg, rel=1e-12)


class ReservationAudit(SchedulerPolicy):
    """Wraps an EASY policy and re-checks its blocked head's reservation
    after every pass.

    The reservation is recomputed as if the pass's backfilled jobs were
    already running until ``now + runtime_estimate``; it must not move
    later than the one EASY computed before backfilling.  Jobs started
    ahead of the head are left out of both, as EASY leaves them out;
    their nodes are counted from the decisions, because moldable EASY
    starts them below their request.
    """

    def __init__(self, policy):
        self.policy = policy
        self.can_mold = getattr(policy, "can_mold", False)
        self.audited = 0

    def schedule(self, ctx):
        decisions = self.policy.schedule(ctx)
        started = {d.job.job_id for d in decisions}
        blocked = [j for j in ctx.pending if j.job_id not in started]
        if not blocked:
            return decisions
        head = blocked[0]
        ahead = ctx.pending.index(head)
        free = ctx.cluster.n_free - sum(d.n_nodes for d in decisions[:ahead])
        before, _ = head_reservation(ctx, head, free)
        backfilled = []
        for d in decisions[ahead:]:
            job = copy.copy(d.job)
            job.nodes_allocated = d.n_nodes
            backfilled.append(job)
            free -= d.n_nodes
        after_ctx = dataclasses.replace(
            ctx, running=ctx.running + backfilled,
            expected_end={**ctx.expected_end,
                          **{j.job_id: ctx.now + j.runtime_estimate
                             for j in backfilled}})
        after, _ = head_reservation(after_ctx, head, free)
        assert after <= before, (
            f"backfill at t={ctx.now:.0f} moved job {head.job_id}'s "
            f"reservation from {before:.0f} to {after:.0f}")
        self.audited += bool(backfilled)
        return decisions


class TestSchedulerInvariants:
    @given(seed=st.integers(0, 1000),
           policy_idx=st.integers(0, 3))
    @SIM_SETTINGS
    def test_no_job_lost_no_oversubscription(self, seed, policy_idx):
        """For any workload and policy: every job completes exactly once,
        the cluster bookkeeping stays consistent, and energy is positive."""
        policy = [FCFSPolicy(), EasyBackfillPolicy(),
                  CarbonBackfillPolicy(max_delay_s=6 * HOUR),
                  MoldableEasyBackfillPolicy()][policy_idx]
        cluster = Cluster(8, power_model())
        # the moldable policy gets resizable jobs to mold
        jobs = workload(seed, malleable=0.5 if policy_idx == 3 else 0.0)
        rjms = RJMS(cluster, jobs, policy,
                    provider=SyntheticProvider("DE", seed=seed))
        result = rjms.run()
        assert len(result.completed_jobs) == len(jobs)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        cluster.check_invariants()
        assert result.total_energy_kwh > 0

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_easy_never_delays_head_reservation(self, seed):
        """At every EASY pass with a blocked head, the pass's backfills
        leave the head's reservation where it was or earlier.  A busy
        32-node queue backfills several jobs per pass, some on spare
        nodes, so both of EASY's admission rules get exercised.  Moldable
        EASY gets the same check on a 50%-malleable workload, where it
        starts some blocked heads small before backfilling."""
        for policy, malleable in ((EasyBackfillPolicy(), 0.0),
                                  (MoldableEasyBackfillPolicy(), 0.5)):
            audit = ReservationAudit(policy)
            jobs = workload(seed, n_jobs=80, mean_interarrival_s=300.0,
                            malleable=malleable)
            RJMS(Cluster(32, power_model()), jobs, audit).run()
            assert audit.audited > 0, type(policy).__name__

    @given(seed=st.integers(0, 1000))
    @SIM_SETTINGS
    def test_work_conservation(self, seed):
        """Each completed job did exactly its work: no progress invented
        or lost across caps, queueing, and backfilling."""
        jobs = workload(seed)
        rjms = RJMS(Cluster(8, power_model()), jobs, EasyBackfillPolicy())
        rjms.run()
        for j in jobs:
            assert j.remaining_work == pytest.approx(0.0, abs=1e-6)
            # runtime at full speed equals work (rigid, uncapped)
            assert j.end_time - j.start_time == pytest.approx(
                j.work_seconds, rel=1e-9)

    @given(seed=st.integers(0, 500))
    @SIM_SETTINGS
    def test_suspension_preserves_work(self, seed):
        """Suspend/resume must never lose or duplicate progress."""
        jobs = workload(seed, suspendable=1.0)
        rjms = RJMS(Cluster(8, power_model()), jobs, EasyBackfillPolicy(),
                    provider=SyntheticProvider("DE", seed=seed))
        rjms.register_manager(CarbonCheckpointPolicy())
        result = rjms.run()
        for j in result.jobs:
            assert j.state is JobState.COMPLETED
            assert j.remaining_work == pytest.approx(0.0, abs=1e-6)
            if j.n_suspensions:
                # wall time = work + suspensions + ckpt/restore overheads
                wall = j.end_time - j.start_time
                assert wall >= j.work_seconds + j.suspended_seconds - 1e-6


class TestCarbonAccountingInvariants:
    @given(seed=st.integers(0, 1000), intensity=st.floats(1.0, 1500.0))
    @SIM_SETTINGS
    def test_carbon_proportional_to_intensity(self, seed, intensity):
        """At constant intensity, total carbon == energy * intensity."""
        jobs = workload(seed, n_jobs=15)
        rjms = RJMS(Cluster(8, power_model()), jobs, EasyBackfillPolicy(),
                    provider=StaticProvider(intensity))
        result = rjms.run()
        assert result.total_carbon_kg == pytest.approx(
            result.total_energy_kwh * intensity / 1000.0, rel=1e-9)

    @given(seed=st.integers(0, 1000))
    @SIM_SETTINGS
    def test_job_energy_bounded_by_cluster(self, seed):
        jobs = workload(seed, n_jobs=15)
        rjms = RJMS(Cluster(8, power_model()), jobs, EasyBackfillPolicy(),
                    provider=SyntheticProvider("FR", seed=seed))
        result = rjms.run()
        job_energy = sum(a.energy_kwh for a in result.accounts.values())
        job_carbon = sum(a.carbon_g for a in result.accounts.values())
        assert job_energy <= result.total_energy_kwh + 1e-6
        assert job_carbon / 1000.0 <= result.total_carbon_kg + 1e-6

    @given(seed=st.integers(0, 1000), case=st.integers(0, 3),
           failures=st.booleans())
    @example(seed=1, case=1, failures=True)
    @example(seed=4, case=0, failures=True)
    @SIM_SETTINGS
    def test_job_sums_equal_cluster_totals_idle_off(self, seed, case,
                                                    failures):
        """With idle nodes powered off the cluster draws exactly what its
        running jobs draw, so per-job energy and carbon add up to the
        cluster totals: an equality, under FCFS, EASY, carbon backfill,
        and checkpoint suspend/resume, with or without node failures
        (a requeued or failure-cancelled job keeps what it used before
        the failure).  The telemetry adds up to the same totals."""
        policy = [FCFSPolicy(), EasyBackfillPolicy(),
                  CarbonBackfillPolicy(max_delay_s=6 * HOUR),
                  EasyBackfillPolicy()][case]
        checkpoint = case == 3
        jobs = workload(seed, n_jobs=20,
                        suspendable=1.0 if checkpoint else 0.0)
        cluster = Cluster(8, power_model(), idle_power_off=True)
        rjms = RJMS(cluster, jobs, policy,
                    provider=SyntheticProvider("DE", seed=seed))
        if checkpoint:
            rjms.register_manager(CarbonCheckpointPolicy())
        if failures:
            rjms.register_manager(FailureInjector(mtbf_seconds=24 * HOUR,
                                                  seed=seed))
        result = rjms.run()
        job_energy = sum(a.energy_kwh for a in result.accounts.values())
        job_carbon_kg = sum(a.carbon_g for a in result.accounts.values()) \
            / 1000.0
        assert job_energy == pytest.approx(result.total_energy_kwh,
                                           rel=1e-12)
        assert job_carbon_kg == pytest.approx(result.total_carbon_kg,
                                              rel=1e-12)
        assert_telemetry_reconciles(result, cluster.last_accrual)

    @given(seed=st.integers(0, 300))
    @SIM_SETTINGS
    def test_power_trace_energy_equals_total(self, seed):
        """The reconstructed power trace carries exactly the total energy,
        and the telemetry carries the total energy and carbon, idle nodes
        included.  A 10-min signal puts intensity changes inside the
        15-min ticks, so a step's mean differs from its spot value."""
        jobs = workload(seed, n_jobs=15)
        cluster = Cluster(8, power_model())
        rjms = RJMS(cluster, jobs, EasyBackfillPolicy(),
                    provider=SyntheticProvider("DE", seed=seed,
                                               step_seconds=600.0))
        result = rjms.run()
        assert result.power_trace.energy_kwh() == pytest.approx(
            result.total_energy_kwh, rel=1e-6)
        assert result.total_carbon_kg > 0
        assert_telemetry_reconciles(result, cluster.last_accrual)
