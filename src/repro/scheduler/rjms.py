"""RJMS core: the batch scheduler driving the discrete-event simulator.

The RJMS owns the full job lifecycle (arrival -> queue -> start ->
[suspend/resume | resize | power-cap changes] -> completion), the exact
per-job energy/carbon accounting, and the hook points where the paper's
carbon-aware plugins attach:

* a :class:`SchedulerPolicy` decides which pending jobs start
  (FCFS / EASY backfill / carbon-aware backfill);
* registered *managers* (objects with an ``on_tick(rjms)`` method) run
  on a periodic tick — the carbon-checkpoint policy (§3.3), the
  malleability manager (§3.2), and the PowerStack site controller
  (§3.1) are all managers.

A job holds nodes exactly while it is in ``running``: ``_place`` is the
one way on (start, resume, resize; a rejected call changes nothing) and
``_remove`` the one way off.  Only the cluster keeps a job's draw.

Accounting is exact: cluster power is piecewise constant between
events, so before any state change the RJMS accrues one step
``[t0, now)`` from the cluster's previous accrual time.  Only jobs
holding nodes draw power, and every one of them was last accrued at
``t0`` too, so the step costs one call of the provider's
:meth:`~repro.grid.providers.CarbonIntensityProvider.integrate_intensity`
over ``[t0, now)`` (exact partial bins, on the trace the provider
already holds), shared by the cluster segment and every running job's
account.  Energy is power times the step; carbon is
``(watts / WATTS_PER_KW) * integral / SECONDS_PER_HOUR``, the order of
:meth:`~repro.grid.intensity.CarbonIntensityTrace.carbon_for_power`, so
totals are the same bits as integrating each job's own window and
every cluster segment after the run.  The cluster total is kept as a
running sum.

Each step is stored once, as the cluster's power segment plus one
:data:`AccrualStep`.  Telemetry is built from them on read: one reading
per sensor at each step's ``t0`` (watts, the mean intensity its carbon
was charged at, busy nodes), so the series integrate to the totals and
a zero-length state leaves none.
"""

from __future__ import annotations

import bisect
import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

import numpy as np

from repro import obs, units
from repro.grid.providers import CarbonIntensityProvider, StaticProvider
from repro.service.core import CarbonService
from repro.scheduler.queues import QueueSet
from repro.simulator.checkpoint import CheckpointModel
from repro.simulator.cluster import Cluster, PowerSegment
from repro.simulator.engine import Event, SimulationEngine
from repro.simulator.jobs import Job, JobKind, JobState
from repro.simulator.node import NodeState
from repro.simulator.telemetry import Sensor, TelemetryDB

__all__ = [
    "StartDecision",
    "SchedulingContext",
    "SchedulerPolicy",
    "RJMS",
    "SimulationResult",
    "JobAccount",
]

# event priorities: completions before scheduling before ticks
PRIO_COMPLETION = 0
PRIO_PHASE = 1          # checkpoint/restore phase ends
PRIO_ARRIVAL = 3
PRIO_TICK = 7

#: failure requeues before the next failure cancels the job (Slurm's
#: ``MaxBatchRequeue`` default): no job restarts forever
MAX_FAILURE_REQUEUES = 5

#: an accrual step beside its power segment ``(t0, t1, watts)``: the
#: intensity integral over it (gCO2/kWh x s), busy nodes, jobs' draw (W)
AccrualStep = Tuple[float, int, float]


def step_telemetry(segments: Sequence[PowerSegment],
                   steps: Sequence[AccrualStep]) -> TelemetryDB:
    """Sensor series with one reading per step at its ``t0``;
    ``steps[i]`` belongs to ``segments[i]`` (unequal lengths raise)."""
    times = [t0 for t0, _, _ in segments]
    return TelemetryDB([
        (Sensor("cluster.power", "W"), times, [w for _, _, w in segments]),
        (Sensor("grid.intensity", "gCO2/kWh"), times,
         [integral / (t1 - t0)
          for (t0, t1, _), (integral, _, _) in zip(segments, steps)]),
        (Sensor("cluster.nodes_busy", "nodes"), times,
         [busy for _, busy, _ in steps]),
    ])


@dataclass(frozen=True)
class StartDecision:
    """Policy output: start ``job`` on ``n_nodes`` now."""

    job: Job
    n_nodes: int

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("must start on at least one node")


@dataclass
class SchedulingContext:
    """Everything a policy may consult during one scheduling pass."""

    now: float
    #: the pending jobs in queue order (:meth:`QueueSet.sort_key`)
    pending: List[Job]
    cluster: Cluster
    provider: CarbonIntensityProvider
    running: List[Job]
    #: expected end time per running job id (user-estimate based)
    expected_end: Dict[int, float]


class SchedulerPolicy(ABC):
    """Decides which pending jobs to start in a scheduling pass.

    Implementations must be *work-conserving with respect to their own
    rules* and deterministic.  They must never return more nodes than
    free; the RJMS validates and raises otherwise (a policy bug, not a
    runtime condition).
    """

    @abstractmethod
    def schedule(self, ctx: SchedulingContext) -> List[StartDecision]:
        """Return the jobs to start now (possibly empty).  The RJMS asks
        only when at least one job is pending."""


class _Manager(Protocol):
    def on_tick(self, rjms: "RJMS") -> None: ...


@dataclass
class JobAccount:
    """Per-job energy/carbon ledger maintained by the RJMS; each step
    charges it at the job's draw in ``Cluster.job_draws``."""

    energy_kwh: float = 0.0
    carbon_g: float = 0.0


@dataclass
class SimulationResult:
    """Outcome of one RJMS simulation run."""

    jobs: List[Job]
    accounts: Dict[int, JobAccount]
    total_energy_kwh: float
    total_carbon_kg: float
    makespan_s: float
    #: the cluster's exact power log, ``(t0, t1, watts)`` per accrual step
    power_segments: List[PowerSegment]
    #: the rest of each step's record, entry *i* for ``power_segments[i]``
    steps: List[AccrualStep]
    provider: CarbonIntensityProvider

    @functools.cached_property
    def telemetry(self) -> TelemetryDB:
        """:func:`step_telemetry` of the run, built on first read."""
        return step_telemetry(self.power_segments, self.steps)

    @property
    def idle_energy_kwh(self) -> float:
        """Energy of the watts no job drew: each step's cluster watts
        less its jobs' draw."""
        return sum((watts - jobs_w) * (t1 - t0) / units.SECONDS_PER_HOUR
                   / units.WATTS_PER_KW
                   for (t0, t1, watts), (_, _, jobs_w)
                   in zip(self.power_segments, self.steps, strict=True))

    @property
    def idle_carbon_kg(self) -> float:
        """Carbon of the watts no job drew, charged at each step's
        integral like the jobs' carbon."""
        return sum(((watts - jobs_w) / units.WATTS_PER_KW) * integral
                   / units.SECONDS_PER_HOUR
                   for (_, _, watts), (integral, _, jobs_w)
                   in zip(self.power_segments, self.steps, strict=True)) \
            / units.GRAMS_PER_KG

    @property
    def completed_jobs(self) -> List[Job]:
        return [j for j in self.jobs if j.state is JobState.COMPLETED]

    @property
    def mean_wait_s(self) -> float:
        waits = [j.wait_time for j in self.jobs if j.start_time is not None]
        return float(np.mean(waits)) if waits else 0.0

    @property
    def p95_wait_s(self) -> float:
        waits = [j.wait_time for j in self.jobs if j.start_time is not None]
        return float(np.percentile(waits, 95)) if waits else 0.0

    @property
    def mean_turnaround_s(self) -> float:
        tats = [j.turnaround for j in self.completed_jobs]
        return float(np.mean(tats)) if tats else 0.0

    @property
    def carbon_per_job_kg(self) -> Dict[int, float]:
        return {jid: acc.carbon_g / units.GRAMS_PER_KG
                for jid, acc in self.accounts.items()}

    def summary(self) -> str:
        cancelled = sum(j.state is JobState.CANCELLED for j in self.jobs)
        return (f"jobs completed: {len(self.completed_jobs)}/{len(self.jobs)}  "
                f"cancelled: {cancelled}  "
                f"makespan: {self.makespan_s / units.SECONDS_PER_HOUR:.1f} h  "
                f"energy: {self.total_energy_kwh:.0f} kWh  "
                f"carbon: {self.total_carbon_kg:.1f} kg  "
                f"mean wait: {self.mean_wait_s / units.SECONDS_PER_HOUR:.2f} h")


class RJMS:
    """Resource and Job Management System over the simulator.

    Parameters
    ----------
    cluster:
        The cluster to schedule on.
    jobs:
        The workload trace (submit times define arrivals).
    policy:
        The scheduling policy (FCFS, EASY, carbon-aware, ...).
    provider:
        Carbon-intensity provider for accounting and carbon-aware
        policies; defaults to a zero-intensity static provider (pure
        performance scheduling).  Whatever is passed is fronted by a
        value-transparent :class:`~repro.service.core.CarbonService`
        (already-wrapped providers are used as-is), so every intensity
        lookup in the simulation — accounting and policies — flows
        through the serving layer's fault handling; spot lookups are
        also cached, history windows and integrals are not.
    queues:
        Queue configuration; ``pending`` is kept in its
        :meth:`~repro.scheduler.queues.QueueSet.sort_key` order.
    tick_seconds:
        Period of the management tick that re-runs managers and the
        scheduling pass (carbon conditions change over time even when
        no job events fire).
    checkpoint_model:
        Cost model used by suspend/resume.

    Each job in ``running`` holds nodes and has at most one live event;
    :meth:`in_phase` tells which are checkpointing or restoring.
    """

    def __init__(self, cluster: Cluster, jobs: Sequence[Job],
                 policy: SchedulerPolicy,
                 provider: Optional[CarbonIntensityProvider] = None,
                 queues: Optional[QueueSet] = None,
                 tick_seconds: float = 900.0,
                 checkpoint_model: Optional[CheckpointModel] = None,
                 start_time: float = 0.0) -> None:
        if tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        self.cluster = cluster
        self.jobs = list(jobs)
        ids = [j.job_id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in workload")
        self.policy = policy
        self.provider = CarbonService.ensure(provider or StaticProvider(0.0))
        self.queues = queues or QueueSet()
        self.tick_seconds = float(tick_seconds)
        self.checkpoint_model = checkpoint_model or CheckpointModel()
        self.engine = SimulationEngine(start_time)

        #: jobs waiting to start, in queue order (see _enqueue)
        self.pending: List[Job] = []
        self.running: Dict[int, Job] = {}
        self.suspended: Dict[int, Job] = {}
        self.accounts: Dict[int, JobAccount] = {}
        self.job_caps: Dict[int, Optional[float]] = {}
        #: ids of the jobs in a checkpoint or restore phase (see in_phase)
        self._phase: Set[int] = set()
        #: each job's one live completion or phase-end event
        self._job_events: Dict[int, Event] = {}
        self._managers: List[_Manager] = []
        self._finalized = False
        #: cluster carbon accrued so far (g), one term per power segment
        self._carbon_g = 0.0
        #: entry *i* completes the cluster's power segment *i*
        self._steps: List[AccrualStep] = []

        can_mold = bool(getattr(policy, "can_mold", False))
        for job in self.jobs:
            self.queues.route(job)  # validate admission eagerly
            resizable = job.kind is not JobKind.RIGID
            needed = (job.min_nodes if (can_mold and resizable)
                      else job.nodes_requested)
            if needed > cluster.n_nodes:
                raise ValueError(
                    f"job {job.job_id} needs {needed} nodes but the "
                    f"cluster has {cluster.n_nodes} — it could never "
                    "start (guaranteed deadlock)")
            self.engine.schedule_at(job.submit_time, self._arrival_fn(job),
                                    priority=PRIO_ARRIVAL,
                                    label=f"arrive:{job.job_id}")

    # -- manager registration ---------------------------------------------------

    def register_manager(self, manager: _Manager) -> None:
        """Attach a tick-driven manager (PowerStack, checkpointing, ...)."""
        self._managers.append(manager)

    # -- time/accounting helpers ---------------------------------------------------

    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def telemetry(self) -> TelemetryDB:
        """:func:`step_telemetry` of the steps so far, built on each read."""
        return step_telemetry(self.cluster.power_segments(), self._steps)

    def _accrue_all(self) -> None:
        """Integrate cluster and running-job power over ``[t0, now)``.

        ``t0`` is the cluster's previous accrual time.  The jobs that
        hold nodes (exactly ``running``) are the only accounts that
        accrue, each at the draw the cluster keeps for it; one intensity
        integral serves them and the cluster.  The step is recorded once:
        the segment ``accrue`` appends plus one :data:`AccrualStep`.
        """
        t0, now = self.cluster.last_accrual, self.now
        watts = self.cluster.accrue(now)
        if now <= t0:
            return
        integral = self.provider.integrate_intensity(t0, now)
        self._carbon_g += (watts / units.WATTS_PER_KW) * integral \
            / units.SECONDS_PER_HOUR
        dt = now - t0
        jobs_w = 0.0
        for jid, w in self.cluster.job_draws.items():
            if w > 0:
                acc = self.accounts[jid]
                acc.energy_kwh += w * dt / units.SECONDS_PER_HOUR \
                    / units.WATTS_PER_KW
                acc.carbon_g += (w / units.WATTS_PER_KW) * integral \
                    / units.SECONDS_PER_HOUR
                jobs_w += w
        self._steps.append((integral, self.cluster.n_busy, jobs_w))

    def in_phase(self, job: Job) -> bool:
        """Whether ``job`` holds its nodes to checkpoint or restore."""
        return job.job_id in self._phase

    # -- placement: the one way on and the one way off the cluster ---------------

    def _place(self, job: Job, n_nodes: int) -> float:
        """Check ``job``'s node bounds and the free nodes, accrue, put it
        on exactly ``n_nodes`` nodes and into ``running``, and re-apply
        its kept cap; returns the cap's perf factor."""
        jid, held = job.job_id, job.nodes_allocated
        if not job.min_nodes <= n_nodes <= job.max_nodes:
            raise ValueError(f"job {jid} takes {job.min_nodes}.."
                             f"{job.max_nodes} nodes, not {n_nodes}")
        if n_nodes - held > self.cluster.n_free:
            raise ValueError(f"job {jid} needs {n_nodes - held} more nodes, "
                             f"{self.cluster.n_free} free")
        self._accrue_all()
        if not held:
            self.cluster.allocate(jid, n_nodes, job.utilization)
        elif n_nodes > held:
            self.cluster.grow(jid, n_nodes - held, job.utilization)
        else:
            self.cluster.shrink(jid, held - n_nodes)
        self.running[jid] = job
        cap = self.job_caps.get(jid)
        return 1.0 if cap is None else self.cluster.set_job_cap(jid, cap)

    def _remove(self, job: Job) -> None:
        """Take ``job`` off its nodes and out of ``running``: end any
        checkpoint/restore phase and cancel its live event."""
        self.cluster.release(job.job_id)
        del self.running[job.job_id]
        self._phase.discard(job.job_id)
        self._replace_event(job, None)

    def _replace_event(self, job: Job, event: Optional[Event]) -> None:
        """Cancel ``job``'s one live event; keep ``event`` (if any)."""
        old = self._job_events.pop(job.job_id, None)
        if old is not None:
            old.cancel()
        if event is not None:
            self._job_events[job.job_id] = event

    # -- lifecycle: arrival ----------------------------------------------------------

    def _enqueue(self, job: Job) -> None:
        """Insert ``job`` into ``pending`` at its place in queue order.

        The order is ``sorted``'s: every job's route was checked in
        ``__init__``, no key field changes after that, and job ids make
        the keys distinct."""
        bisect.insort(self.pending, job, key=self.queues.sort_key)

    def _arrival_fn(self, job: Job):
        def _arrive() -> None:
            self._enqueue(job)
            self._schedule_pass()
        return _arrive

    # -- lifecycle: start ---------------------------------------------------------------

    def _start_job(self, job: Job, n_nodes: int) -> None:
        perf = self._place(job, n_nodes)
        job.start(self.now, n_nodes, perf)
        self.pending.remove(job)
        # a job requeued by a node failure keeps what it already used
        self.accounts.setdefault(job.job_id, JobAccount())
        self._schedule_completion(job)

    def _schedule_completion(self, job: Job) -> None:
        eta = job.eta(self.now)
        self._replace_event(job, self.engine.schedule_at(
            eta, self._completion_fn(job), priority=PRIO_COMPLETION,
            label=f"complete:{job.job_id}") if np.isfinite(eta) else None)

    def _completion_fn(self, job: Job):
        def _complete() -> None:
            self._accrue_all()
            job.complete(self.now)
            self._remove(job)
            self._schedule_pass()
        return _complete

    # -- lifecycle: power caps -----------------------------------------------------------

    def set_job_cap(self, job: Job, cap_watts_per_node: Optional[float]) -> None:
        """Apply a per-node power cap to a running job (PowerStack knob)."""
        if job.state is not JobState.RUNNING:
            raise ValueError(f"job {job.job_id} is not running")
        self._accrue_all()
        self.job_caps[job.job_id] = cap_watts_per_node
        perf = self.cluster.set_job_cap(job.job_id, cap_watts_per_node)
        if not self.in_phase(job):  # a phase end sets the perf factor
            job.set_perf_factor(self.now, perf)
            self._schedule_completion(job)

    # -- lifecycle: suspend/resume (§3.3) ----------------------------------------------

    def suspend_job(self, job: Job) -> None:
        """Checkpoint then suspend a running suspendable job."""
        if job.state is not JobState.RUNNING or not job.suspendable:
            raise ValueError(f"job {job.job_id} cannot be suspended")
        if self.in_phase(job):
            raise ValueError(f"job {job.job_id} already mid-phase")
        self._accrue_all()
        # checkpoint phase: nodes busy, no progress
        job.set_perf_factor(self.now, 0.0)
        self._phase.add(job.job_id)
        self._replace_event(job, self.engine.schedule_in(
            self.checkpoint_model.checkpoint_seconds(job),
            self._finish_suspend_fn(job), priority=PRIO_PHASE,
            label=f"ckpt-done:{job.job_id}"))

    def _finish_suspend_fn(self, job: Job):
        def _finish() -> None:
            self._accrue_all()
            job.suspend(self.now)
            self._remove(job)
            self.suspended[job.job_id] = job
            self._schedule_pass()
        return _finish

    def resume_job(self, job: Job, n_nodes: Optional[int] = None) -> None:
        """Restore then resume a suspended job (needs free nodes)."""
        if job.state is not JobState.SUSPENDED:
            raise ValueError(f"job {job.job_id} is not suspended")
        n = n_nodes if n_nodes is not None else job.nodes_requested
        self._place(job, n)
        job.resume(self.now, n, perf_factor=0.0)  # restoring: no progress
        self._phase.add(job.job_id)
        del self.suspended[job.job_id]
        self._replace_event(job, self.engine.schedule_in(
            self.checkpoint_model.restore_seconds(job),
            self._finish_resume_fn(job), priority=PRIO_PHASE,
            label=f"restore-done:{job.job_id}"))

    def _finish_resume_fn(self, job: Job):
        def _finish() -> None:
            self._accrue_all()
            self._phase.discard(job.job_id)
            perf = self.cluster.nodes_of_job(job.job_id)[0].perf_factor
            job.set_perf_factor(self.now, perf)
            self._schedule_completion(job)
        return _finish

    # -- lifecycle: node failures (fail-in-place, paper ref [40]) -------------------

    def fail_node(self, node_id: int,
                  repair_seconds: float = 4 * units.SECONDS_PER_HOUR) -> None:
        """Fail a node; the occupying job (if any) dies and is requeued.

        Failure semantics follow standard MPI practice: losing one node
        kills the whole job.  Jobs flagged ``suspendable`` are assumed to
        checkpoint on their own and keep their banked progress; others
        restart from scratch; after :data:`MAX_FAILURE_REQUEUES` requeues
        the job is cancelled instead.  Its account keeps what it used.
        The node returns to service after ``repair_seconds``.
        """
        if not 0 <= node_id < self.cluster.n_nodes:
            raise ValueError(f"no node {node_id}")
        if repair_seconds <= 0:
            raise ValueError("repair time must be positive")
        node = self.cluster.nodes[node_id]
        if node.state is NodeState.DOWN:
            raise ValueError(f"node {node_id} is already down")
        self._accrue_all()

        if node.state is NodeState.BUSY:
            job = self.running[node.job_id]
            self._remove(job)
            if job.n_restarts >= MAX_FAILURE_REQUEUES:
                job.cancel(self.now)
            else:
                job.requeue(self.now, lose_progress=not job.suspendable)
                self._enqueue(job)

        self.cluster.mark_down(node_id)
        self.engine.schedule_in(repair_seconds, self._repair_fn(node_id),
                                priority=PRIO_PHASE,
                                label=f"repair:{node_id}")
        self._schedule_pass()

    def _repair_fn(self, node_id: int):
        def _repair() -> None:
            self._accrue_all()
            self.cluster.repair(node_id)
            self._schedule_pass()
        return _repair

    # -- lifecycle: malleable resize (§3.2) -----------------------------------------------

    def resize_job(self, job: Job, n_nodes: int) -> None:
        """Grow or shrink a running malleable job to ``n_nodes``."""
        if job.state is not JobState.RUNNING or not job.is_malleable:
            raise ValueError(f"job {job.job_id} cannot be resized")
        if self.in_phase(job):
            raise ValueError(f"job {job.job_id} is mid-phase")
        if n_nodes == job.nodes_allocated:
            return
        self._place(job, n_nodes)
        job.resize(self.now, n_nodes)
        self._schedule_completion(job)

    # -- scheduling pass --------------------------------------------------------------------

    def _expected_ends(self) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for jid, job in self.running.items():
            assert job.start_time is not None
            est = job.start_time + job.runtime_estimate
            out[jid] = max(est, self.now + 60.0)  # overran estimate: assume soon
        return out

    def _schedule_pass(self) -> None:
        """Ask the policy which pending jobs start now, and start them.

        With nothing pending there is nothing to decide: every policy
        starts nothing, and the managers' ``on_jobs_started`` hook fires
        only on starts, so the pass returns at once (no span, no policy
        call); only the queue gauges are kept current.
        """
        if obs.enabled():
            reg = obs.metrics()
            reg.gauge("rjms.pending_jobs").set(len(self.pending))
            reg.gauge("rjms.running_jobs").set(len(self.running))
        if not self.pending:
            return
        ctx = SchedulingContext(
            now=self.now,
            pending=list(self.pending),
            cluster=self.cluster,
            provider=self.provider,
            running=list(self.running.values()),
            expected_end=self._expected_ends(),
        )
        with obs.span("rjms.schedule",
                      attrs={"pending": len(ctx.pending),
                             "running": len(ctx.running)}) as span:
            decisions = self.policy.schedule(ctx)
            span.set_attr("decisions", len(decisions))
        if obs.enabled():
            reg = obs.metrics()
            reg.counter("rjms.schedule_passes").inc()
            reg.counter("rjms.jobs_started").inc(len(decisions))
        # by identity: a copy of a pending job compares equal to it
        pending = {j.job_id: j for j in self.pending} if decisions else {}
        seen = set()
        need = 0
        for d in decisions:
            if d.job.job_id in seen:
                raise ValueError(f"policy started job {d.job.job_id} twice")
            if pending.get(d.job.job_id) is not d.job:
                raise ValueError(f"policy started non-pending job {d.job.job_id}")
            seen.add(d.job.job_id)
            need += d.n_nodes
        if need > self.cluster.n_free:
            raise ValueError(
                f"policy oversubscribed: wants {need}, {self.cluster.n_free} free")
        for d in decisions:
            self._start_job(d.job, d.n_nodes)
        if decisions:
            # Let power managers react immediately — a job starting
            # uncapped between ticks would overshoot the system budget.
            for mgr in self._managers:
                hook = getattr(mgr, "on_jobs_started", None)
                if hook is not None:
                    hook(self)

    # -- tick ------------------------------------------------------------------------------------

    def _tick(self) -> None:
        self._accrue_all()
        for mgr in self._managers:
            mgr.on_tick(self)
        self._schedule_pass()
        # keep ticking while there is (or will be) anything to manage;
        # peek_time drops cancelled heads, which step() would skip anyway
        if self.pending or self.running or self.suspended \
                or self.engine.peek_time() is not None:
            self.engine.schedule_in(self.tick_seconds, self._tick,
                                    priority=PRIO_TICK, label="tick")

    # -- run ------------------------------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: int = 10_000_000) -> SimulationResult:
        """Run the simulation to completion (or ``until``) and report.

        Raises if jobs remain unfinished at the horizon only when no
        ``until`` was given (a drained queue with pending jobs means a
        deadlock — a policy bug worth failing loudly on).
        """
        if self._finalized:
            raise RuntimeError("this RJMS instance has already run")
        self.engine.schedule_in(self.tick_seconds, self._tick,
                                priority=PRIO_TICK, label="tick")
        with obs.span("rjms.run",
                      attrs={"n_jobs": len(self.jobs),
                             "n_nodes": self.cluster.n_nodes,
                             "policy": type(self.policy).__name__}):
            if until is not None:
                self.engine.run_until(until, max_events)
            else:
                self.engine.run(max_events)
                unfinished = [j for j in self.jobs
                              if j.state not in (JobState.COMPLETED,
                                                 JobState.CANCELLED)]
                if unfinished:
                    raise RuntimeError(
                        f"{len(unfinished)} jobs never finished "
                        "(policy deadlock?): "
                        f"{[j.job_id for j in unfinished[:10]]}")
        self._accrue_all()
        self._finalized = True

        ends = [j.end_time for j in self.jobs if j.end_time is not None]
        makespan = (max(ends) - min(j.submit_time for j in self.jobs)) \
            if ends else 0.0
        return SimulationResult(
            jobs=self.jobs,
            accounts=self.accounts,
            total_energy_kwh=self.cluster.energy_kwh,
            total_carbon_kg=self._carbon_g / units.GRAMS_PER_KG,
            makespan_s=makespan,
            power_segments=self.cluster.power_segments(),
            steps=list(self._steps),
            provider=self.provider,
        )
