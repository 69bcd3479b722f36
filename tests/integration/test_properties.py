"""Cross-cutting property-based tests (hypothesis) on system invariants."""

import collections
import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import units
from repro.grid import StaticProvider, SyntheticProvider
from repro.powerstack import LinearScalingPolicy, SiteController
from repro.scheduler import (
    RJMS,
    CarbonBackfillPolicy,
    CarbonCheckpointPolicy,
    EasyBackfillPolicy,
    FCFSPolicy,
    MalleabilityManager,
    MoldableEasyBackfillPolicy,
    QueueConfig,
    QueueSet,
    SchedulerPolicy,
)
from repro.scheduler.backfill import head_reservation
from repro.simulator import (
    Cluster,
    ComponentPowerModel,
    JobState,
    NodePowerModel,
    NodeState,
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


#: how far (W) a step's idle watts may sit from its idle nodes' draw:
#: float error of two sums of at most eight node draws
IDLE_WATTS_ABS = 1e-9


def record_idle_nodes(rjms):
    """The cluster's idle node count over each accrual step, one entry
    per power segment, read as the segment is appended."""
    cluster, accrue, idle = rjms.cluster, rjms.cluster.accrue, []

    def accrued(now):
        if now > cluster.last_accrual:
            idle.append(cluster.n_idle)
        return accrue(now)
    cluster.accrue = accrued
    return idle


def assert_jobs_and_idle_make_totals(result, idle_nodes, idle_watts):
    """Per-job energy and carbon plus the idle term equal the cluster
    totals, and each step's idle watts are its idle nodes' draw, so the
    idle term is measured, not the totals less the jobs."""
    assert len(idle_nodes) == len(result.steps) == len(result.power_segments)
    for (_, _, watts), (_, _, jobs_w), n_idle in zip(
            result.power_segments, result.steps, idle_nodes):
        assert watts - jobs_w == pytest.approx(n_idle * idle_watts, rel=0,
                                               abs=IDLE_WATTS_ABS)
    job_energy = sum(a.energy_kwh for a in result.accounts.values())
    job_carbon_kg = sum(a.carbon_g for a in result.accounts.values()) \
        / units.GRAMS_PER_KG
    assert job_energy + result.idle_energy_kwh == pytest.approx(
        result.total_energy_kwh, rel=1e-12)
    assert job_carbon_kg + result.idle_carbon_kg == pytest.approx(
        result.total_carbon_kg, rel=1e-12)


def accounting_run(seed, case, failures, idle_power_off):
    """A 20-job run on 8 nodes under FCFS, EASY, carbon backfill, or
    EASY with checkpoint suspend/resume (``case`` 0-3), with node
    failures if ``failures``."""
    policy = [FCFSPolicy(), EasyBackfillPolicy(),
              CarbonBackfillPolicy(max_delay_s=6 * HOUR),
              EasyBackfillPolicy()][case]
    checkpoint = case == 3
    jobs = workload(seed, n_jobs=20, suspendable=1.0 if checkpoint else 0.0)
    rjms = RJMS(Cluster(8, power_model(), idle_power_off=idle_power_off),
                jobs, policy, provider=SyntheticProvider("DE", seed=seed))
    if checkpoint:
        rjms.register_manager(CarbonCheckpointPolicy())
    if failures:
        rjms.register_manager(FailureInjector(mtbf_seconds=24 * HOUR,
                                              seed=seed))
    return rjms


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

    @pytest.mark.parametrize("idle_power_off", [False, True],
                             ids=["idle-on", "idle-off"])
    @given(seed=st.integers(0, 1000))
    @SIM_SETTINGS
    def test_no_job_lost_no_oversubscription_managed_site(
            self, seed, idle_power_off):
        """Under node failures, suspend/resume, malleable resizes and
        caps: every job ends exactly once (completed, or cancelled by
        the requeue cap), the running jobs never hold more nodes than
        are up, and the cluster bookkeeping stays consistent."""
        rjms = managed_site(seed, idle_power_off)
        ends = collections.Counter()
        for job in rjms.jobs:
            for name in ("complete", "cancel"):
                def counted(now, _fn=getattr(job, name), _id=job.job_id):
                    ends[_id] += 1
                    return _fn(now)
                setattr(job, name, counted)
        cluster, step = rjms.cluster, rjms.engine.step

        def checked_step():
            fired = step()
            up = sum(nd.state is not NodeState.DOWN for nd in cluster.nodes)
            assert sum(j.nodes_allocated
                       for j in rjms.running.values()) <= up
            return fired
        rjms.engine.step = checked_step
        result = rjms.run()
        assert ends == {j.job_id: 1 for j in rjms.jobs}
        assert {j.state for j in rjms.jobs} <= {JobState.COMPLETED,
                                                JobState.CANCELLED}
        assert [j.job_id for j in result.completed_jobs] == [
            j.job_id for j in rjms.jobs if j.state is JobState.COMPLETED]
        assert not (rjms.pending or rjms.running or rjms.suspended)
        assert cluster.n_busy == 0
        cluster.check_invariants()
        assert result.total_energy_kwh > 0

    @pytest.mark.parametrize("idle_power_off", [False, True],
                             ids=["idle-on", "idle-off"])
    @given(seed=st.integers(0, 1000))
    @SIM_SETTINGS
    def test_work_conservation_managed_site(self, seed, idle_power_off):
        """Under node failures, suspend/resume, malleable resizes and
        caps, each completed job did exactly its work: progress
        integrated here, at the rate each job had between its state
        changes, adds up to ``work_seconds`` (a failure restarts it from
        scratch unless the job checkpoints itself)."""
        rjms = managed_site(seed, idle_power_off)
        done, since = {}, {}

        def bank(job, now):
            if job.state is JobState.RUNNING:
                done[job.job_id] += (now - since[job.job_id][0]) \
                    * since[job.job_id][1]
            since[job.job_id] = (now, job.current_rate)

        for job in rjms.jobs:
            done[job.job_id] = 0.0
            for name in ("start", "set_perf_factor", "resize", "suspend",
                         "resume", "complete", "requeue", "cancel"):
                def changed(now, *args, _fn=getattr(job, name), _job=job,
                            _name=name, **kwargs):
                    bank(_job, now)
                    _fn(now, *args, **kwargs)
                    if _name == "requeue" and kwargs.get("lose_progress",
                                                         True):
                        done[_job.job_id] = 0.0
                    since[_job.job_id] = (now, _job.current_rate)
                setattr(job, name, changed)
        rjms.run()
        completed = [j for j in rjms.jobs if j.state is JobState.COMPLETED]
        assert completed
        for j in completed:
            assert j.remaining_work == pytest.approx(0.0, abs=1e-6)
            assert done[j.job_id] == pytest.approx(j.work_seconds,
                                                   rel=1e-9, abs=1e-6)

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
        rjms = accounting_run(seed, case, failures, idle_power_off=True)
        cluster = rjms.cluster
        result = rjms.run()
        job_energy = sum(a.energy_kwh for a in result.accounts.values())
        job_carbon_kg = sum(a.carbon_g for a in result.accounts.values()) \
            / 1000.0
        assert job_energy == pytest.approx(result.total_energy_kwh,
                                           rel=1e-12)
        assert job_carbon_kg == pytest.approx(result.total_carbon_kg,
                                              rel=1e-12)
        assert_telemetry_reconciles(result, cluster.last_accrual)

    @given(seed=st.integers(0, 1000), case=st.integers(0, 3),
           failures=st.booleans())
    @example(seed=1, case=1, failures=True)
    @SIM_SETTINGS
    def test_jobs_and_idle_equal_cluster_totals_idle_on(self, seed, case,
                                                        failures):
        """With idle nodes drawing power, per-job energy and carbon plus
        the idle term add up to the cluster totals, under FCFS, EASY,
        carbon backfill, and checkpoint suspend/resume, with or without
        node failures (a down node draws nothing)."""
        rjms = accounting_run(seed, case, failures, idle_power_off=False)
        idle_nodes = record_idle_nodes(rjms)
        result = rjms.run()
        assert result.idle_energy_kwh > 0
        assert_jobs_and_idle_make_totals(result, idle_nodes,
                                         power_model().idle_watts)

    @pytest.mark.parametrize("idle_power_off", [False, True],
                             ids=["idle-on", "idle-off"])
    @given(seed=st.integers(0, 1000))
    @SIM_SETTINGS
    def test_jobs_and_idle_equal_cluster_totals_managed_site(
            self, seed, idle_power_off):
        """The same under the managed site's node failures,
        suspend/resume, malleable resizes and PowerStack caps: a capped
        job draws less, an idle node still draws its idle watts."""
        rjms = managed_site(seed, idle_power_off)
        idle_nodes = record_idle_nodes(rjms)
        result = rjms.run()
        assert_jobs_and_idle_make_totals(result, idle_nodes,
                                         power_model().idle_watts)

    @given(seed=st.integers(0, 300))
    @SIM_SETTINGS
    def test_telemetry_reconciles_totals(self, seed):
        """The telemetry carries the total energy and carbon, idle nodes
        included.  A 10-min signal puts intensity changes inside the
        15-min ticks, so a step's mean differs from its spot value."""
        jobs = workload(seed, n_jobs=15)
        cluster = Cluster(8, power_model())
        rjms = RJMS(cluster, jobs, EasyBackfillPolicy(),
                    provider=SyntheticProvider("DE", seed=seed,
                                               step_seconds=600.0))
        result = rjms.run()
        assert result.total_carbon_kg > 0
        assert_telemetry_reconciles(result, cluster.last_accrual)


def managed_site(seed, idle_power_off, site=SiteController):
    """An 8-node site where every kind of state change happens: node
    failures, carbon suspend/resume, malleable resizes and PowerStack
    caps, over a half-suspendable, half-malleable workload.  ``site``
    builds the PowerStack controller from its budget policy and the
    cluster."""
    pm = power_model()
    cluster = Cluster(8, pm, idle_power_off=idle_power_off)
    rjms = RJMS(cluster, workload(seed, n_jobs=20, suspendable=0.5,
                                  malleable=0.5),
                MoldableEasyBackfillPolicy(),
                provider=SyntheticProvider("DE", seed=seed))
    high, low = 8 * pm.peak_watts, 3 * pm.peak_watts
    rjms.register_manager(FailureInjector(mtbf_seconds=36 * HOUR,
                                          repair_seconds=HOUR, seed=seed))
    rjms.register_manager(CarbonCheckpointPolicy(suspend_percentile=60.0,
                                                 resume_percentile=40.0))
    rjms.register_manager(MalleabilityManager(
        lambda t: high if int(t // (6 * HOUR)) % 2 == 0 else low))
    rjms.register_manager(site(
        LinearScalingPolicy(3 * (pm.peak_watts + pm.idle_watts),
                            6 * pm.peak_watts, 350.0, 490.0), cluster))
    return rjms


def assert_placement_consistent(rjms):
    """The jobs holding nodes are exactly ``running``; each holds as
    many nodes as it thinks, at the draw a fresh scan of them gives;
    every job mid checkpoint/restore is running."""
    cluster = rjms.cluster
    holders = {nd.job_id for nd in cluster.nodes
               if nd.state is NodeState.BUSY}
    assert holders == set(rjms.running) == set(cluster.job_draws)
    for jid, job in rjms.running.items():
        nodes = cluster.nodes_of_job(jid)
        assert job.state is JobState.RUNNING
        assert job.nodes_allocated == len(nodes)
        assert cluster.job_draws[jid] == sum(nd.current_power()
                                             for nd in nodes)
    assert all(j.job_id in rjms.running for j in rjms.jobs
               if rjms.in_phase(j))
    cluster.check_invariants()


class TestPlacementInvariants:
    @pytest.mark.parametrize("idle_power_off", [False, True],
                             ids=["idle-on", "idle-off"])
    @given(seed=st.integers(0, 1000))
    @SIM_SETTINGS
    def test_after_every_event(self, seed, idle_power_off):
        """Under failures, suspend/resume, resizes and caps, the RJMS's
        view of who holds which nodes, at what draw, matches the
        cluster's after every engine event."""
        rjms = managed_site(seed, idle_power_off)
        step = rjms.engine.step

        def checked_step():
            fired = step()
            assert_placement_consistent(rjms)
            return fired
        rjms.engine.step = checked_step
        rjms.run()

    def test_the_site_makes_every_kind_of_change(self):
        rjms = managed_site(0, False)
        changes = ("fail_node", "suspend_job", "resume_job", "resize_job",
                   "set_job_cap")
        calls = collections.Counter()
        for name in changes:
            def counted(*args, _fn=getattr(rjms, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            setattr(rjms, name, counted)
        rjms.run()
        assert all(calls[name] > 0 for name in changes), calls


def assert_queue_ordered(rjms):
    """``pending`` holds the same objects, in the same order, as
    ``queues.order`` sorts them into."""
    ordered = rjms.queues.order(rjms.pending)
    assert [id(j) for j in rjms.pending] == [id(j) for j in ordered]


def run_checking_queue_order(rjms):
    step = rjms.engine.step

    def checked_step():
        fired = step()
        assert_queue_ordered(rjms)
        return fired
    rjms.engine.step = checked_step
    rjms.run()


#: routes by width, and the wider a job the higher its priority, so a
#: later arrival often goes ahead of jobs already waiting
MIXED_QUEUES = QueueSet((
    QueueConfig("narrow", priority=10, max_nodes=1, max_walltime_s=4 * HOUR),
    QueueConfig("mid", priority=50, max_nodes=4, max_walltime_s=48 * HOUR),
    QueueConfig("wide", priority=90, max_nodes=8, max_walltime_s=48 * HOUR),
    QueueConfig("long", priority=30, max_nodes=8,
                max_walltime_s=1000 * HOUR),
))


class TestQueueOrder:
    """The RJMS keeps ``pending`` in queue order as jobs arrive, start
    and come back after a node failure, instead of sorting each pass."""

    @pytest.mark.parametrize("idle_power_off", [False, True],
                             ids=["idle-on", "idle-off"])
    @given(seed=st.integers(0, 1000))
    @SIM_SETTINGS
    def test_managed_site_after_every_event(self, seed, idle_power_off):
        run_checking_queue_order(managed_site(seed, idle_power_off))

    @given(seed=st.integers(0, 1000))
    @SIM_SETTINGS
    def test_mixed_priorities_after_every_event(self, seed):
        rjms = RJMS(Cluster(8, power_model()),
                    workload(seed, n_jobs=40, mean_interarrival_s=600.0),
                    EasyBackfillPolicy(), queues=MIXED_QUEUES)
        rjms.register_manager(FailureInjector(mtbf_seconds=24 * HOUR,
                                              repair_seconds=HOUR,
                                              seed=seed))
        run_checking_queue_order(rjms)

    def test_requeues_go_ahead_of_waiting_jobs(self):
        """The managed site requeues failed jobs while later jobs wait,
        so a requeue that appended would break the order."""
        rjms = managed_site(0, False)
        fail_node = rjms.fail_node
        ahead = []

        def counted(node_id, *args, **kwargs):
            before = {id(j) for j in rjms.pending}
            fail_node(node_id, *args, **kwargs)
            ahead.extend(i for i, j in enumerate(rjms.pending[:-1])
                         if id(j) not in before)
        rjms.fail_node = counted
        run_checking_queue_order(rjms)
        assert ahead
