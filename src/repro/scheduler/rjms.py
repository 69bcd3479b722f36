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

Accounting is exact: cluster power is piecewise constant between
events, so before any state change the RJMS accrues one step
``[t0, now)`` from the cluster's previous accrual time.  Only running
jobs draw power, and every one of them was last accrued at ``t0`` too,
so the step costs one intensity integral over the exact partial-bin
history window, shared by the cluster segment and every running job's
account.  Energy is power times the step; carbon is
``(watts / WATTS_PER_KW) * integral / SECONDS_PER_HOUR``, the order of
:meth:`~repro.grid.intensity.CarbonIntensityTrace.carbon_for_power`, so
totals are the same bits as integrating each job's own window and
every cluster segment after the run.  The cluster total is kept as a
running sum.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro import obs, units
from repro.core.operational import PowerTrace
from repro.grid.providers import CarbonIntensityProvider, StaticProvider
from repro.service.core import CarbonService
from repro.scheduler.queues import QueueSet
from repro.simulator.checkpoint import CheckpointModel
from repro.simulator.cluster import Cluster
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
PRIO_SCHEDULE = 5
PRIO_TICK = 7


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
        """Return the jobs to start now (possibly empty)."""


class _Manager(Protocol):
    def on_tick(self, rjms: "RJMS") -> None: ...


@dataclass
class JobAccount:
    """Per-job energy/carbon ledger maintained by the RJMS."""

    energy_kwh: float = 0.0
    carbon_g: float = 0.0
    #: draw of the job's allocation (W); nonzero only while it runs
    current_power_w: float = 0.0


@dataclass
class SimulationResult:
    """Outcome of one RJMS simulation run."""

    jobs: List[Job]
    accounts: Dict[int, JobAccount]
    total_energy_kwh: float
    total_carbon_kg: float
    makespan_s: float
    power_trace: PowerTrace
    provider: CarbonIntensityProvider
    telemetry: TelemetryDB

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
        return (f"jobs completed: {len(self.completed_jobs)}/{len(self.jobs)}  "
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
        lookup in the simulation — accounting, telemetry, policies —
        flows through the serving layer's fault handling; spot lookups
        are also cached, history windows are not.
    queues:
        Queue configuration; orders the pending queue.
    tick_seconds:
        Period of the management tick that re-runs managers and the
        scheduling pass (carbon conditions change over time even when
        no job events fire).
    checkpoint_model:
        Cost model used by suspend/resume.
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
        self.telemetry = TelemetryDB()
        self.telemetry.register(Sensor("cluster.power", "W"))
        self.telemetry.register(Sensor("grid.intensity", "gCO2/kWh"))
        self.telemetry.register(Sensor("cluster.nodes_busy", "nodes"))

        self.pending: List[Job] = []
        self.running: Dict[int, Job] = {}
        self.suspended: Dict[int, Job] = {}
        self.accounts: Dict[int, JobAccount] = {}
        self.job_caps: Dict[int, Optional[float]] = {}
        #: jobs currently in a checkpoint or restore phase
        self._phase: Dict[int, str] = {}
        self._phase_events: Dict[int, Event] = {}
        self._completion_events: Dict[int, Event] = {}
        self._managers: List[_Manager] = []
        self._max_seen_time = start_time
        self._finalized = False
        #: cluster carbon accrued so far (g), one term per power segment
        self._carbon_g = 0.0

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

    def _accrue_all(self) -> None:
        """Integrate cluster and running-job power over ``[t0, now)``.

        ``t0`` is the cluster's previous accrual time.  Completion,
        suspension and node failure all take a job out of ``running``
        and zero its power, so the running jobs are the only accounts
        that accrue; one intensity integral serves them and the cluster.
        """
        t0, now = self.cluster.last_accrual, self.now
        watts = self.cluster.accrue(now)
        if now <= t0 or (watts <= 0 and not self.running):
            return
        integral = self.provider.history(t0, now).integrate_intensity(t0, now)
        if watts > 0:
            self._carbon_g += (watts / units.WATTS_PER_KW) * integral \
                / units.SECONDS_PER_HOUR
        dt = now - t0
        for jid in self.running:
            acc = self.accounts[jid]
            w = acc.current_power_w
            if w > 0:
                acc.energy_kwh += w * dt / units.SECONDS_PER_HOUR \
                    / units.WATTS_PER_KW
                acc.carbon_g += (w / units.WATTS_PER_KW) * integral \
                    / units.SECONDS_PER_HOUR

    def _job_power_now(self, job: Job) -> float:
        """Current draw of a job's allocation (W)."""
        nodes = self.cluster.nodes_of_job(job.job_id)
        return sum(nd.current_power() for nd in nodes)

    def _refresh_job_power(self, job: Job) -> None:
        self.accounts[job.job_id].current_power_w = self._job_power_now(job)

    def _record_telemetry(self) -> None:
        now = self.now
        self.telemetry.record("cluster.power", now, self.cluster.current_power())
        self.telemetry.record("grid.intensity", now,
                              self.provider.intensity_at(max(now, 0.0)))
        self.telemetry.record("cluster.nodes_busy", now, self.cluster.n_busy)

    # -- lifecycle: arrival ----------------------------------------------------------

    def _arrival_fn(self, job: Job):
        def _arrive() -> None:
            self.pending.append(job)
            self._schedule_pass()
        return _arrive

    # -- lifecycle: start ---------------------------------------------------------------

    def _start_job(self, job: Job, n_nodes: int) -> None:
        self._accrue_all()
        self.cluster.allocate(job.job_id, n_nodes, job.utilization)
        cap = self.job_caps.get(job.job_id)
        perf = 1.0
        if cap is not None:
            perf = self.cluster.set_job_cap(job.job_id, cap)
        job.start(self.now, n_nodes, perf)
        self.pending.remove(job)
        self.running[job.job_id] = job
        # a job requeued by a node failure keeps what it already used
        self.accounts.setdefault(job.job_id, JobAccount())
        self._refresh_job_power(job)
        self._schedule_completion(job)

    def _schedule_completion(self, job: Job) -> None:
        old = self._completion_events.pop(job.job_id, None)
        if old is not None:
            old.cancel()
        eta = job.eta(self.now)
        if np.isfinite(eta):
            self._completion_events[job.job_id] = self.engine.schedule_at(
                eta, self._completion_fn(job), priority=PRIO_COMPLETION,
                label=f"complete:{job.job_id}")

    def _completion_fn(self, job: Job):
        def _complete() -> None:
            if job.state is not JobState.RUNNING:
                return  # stale event (suspended/cancelled meanwhile)
            self._accrue_all()
            job.complete(self.now)
            self.cluster.release(job.job_id)
            self.running.pop(job.job_id, None)
            self._completion_events.pop(job.job_id, None)
            acc = self.accounts[job.job_id]
            acc.current_power_w = 0.0
            self._record_telemetry()
            self._max_seen_time = max(self._max_seen_time, self.now)
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
        if self._phase.get(job.job_id) is None:  # not mid checkpoint/restore
            job.set_perf_factor(self.now, perf)
            self._schedule_completion(job)
        self._refresh_job_power(job)

    # -- lifecycle: suspend/resume (§3.3) ----------------------------------------------

    def suspend_job(self, job: Job) -> None:
        """Checkpoint then suspend a running suspendable job."""
        if job.state is not JobState.RUNNING or not job.suspendable:
            raise ValueError(f"job {job.job_id} cannot be suspended")
        if self._phase.get(job.job_id) is not None:
            raise ValueError(f"job {job.job_id} already mid-phase")
        self._accrue_all()
        # checkpoint phase: nodes busy, no progress
        job.set_perf_factor(self.now, 0.0)
        self._phase[job.job_id] = "checkpoint"
        ev = self._completion_events.pop(job.job_id, None)
        if ev is not None:
            ev.cancel()
        ckpt_s = self.checkpoint_model.checkpoint_seconds(job)
        self._phase_events[job.job_id] = self.engine.schedule_in(
            ckpt_s, self._finish_suspend_fn(job), priority=PRIO_PHASE,
            label=f"ckpt-done:{job.job_id}")

    def _finish_suspend_fn(self, job: Job):
        def _finish() -> None:
            self._accrue_all()
            self.cluster.release(job.job_id)
            job.suspend(self.now)
            self._phase.pop(job.job_id, None)
            self._phase_events.pop(job.job_id, None)
            self.running.pop(job.job_id, None)
            self.suspended[job.job_id] = job
            self.accounts[job.job_id].current_power_w = 0.0
            self._record_telemetry()
            self._schedule_pass()
        return _finish

    def resume_job(self, job: Job, n_nodes: Optional[int] = None) -> None:
        """Restore then resume a suspended job (needs free nodes)."""
        if job.state is not JobState.SUSPENDED:
            raise ValueError(f"job {job.job_id} is not suspended")
        n = n_nodes if n_nodes is not None else job.nodes_requested
        if self.cluster.n_free < n:
            raise ValueError(
                f"cannot resume job {job.job_id}: {self.cluster.n_free} free "
                f"< {n} needed")
        self._accrue_all()
        self.cluster.allocate(job.job_id, n, job.utilization)
        cap = self.job_caps.get(job.job_id)
        if cap is not None:
            self.cluster.set_job_cap(job.job_id, cap)
        job.resume(self.now, n, perf_factor=0.0)  # restoring: no progress
        self._phase[job.job_id] = "restore"
        self.suspended.pop(job.job_id, None)
        self.running[job.job_id] = job
        self._refresh_job_power(job)
        restore_s = self.checkpoint_model.restore_seconds(job)
        self._phase_events[job.job_id] = self.engine.schedule_in(
            restore_s, self._finish_resume_fn(job), priority=PRIO_PHASE,
            label=f"restore-done:{job.job_id}")
        self._record_telemetry()

    def _finish_resume_fn(self, job: Job):
        def _finish() -> None:
            if job.state is not JobState.RUNNING:
                return
            self._accrue_all()
            self._phase.pop(job.job_id, None)
            self._phase_events.pop(job.job_id, None)
            nodes = self.cluster.nodes_of_job(job.job_id)
            perf = nodes[0].perf_factor if nodes else 1.0
            job.set_perf_factor(self.now, perf)
            self._schedule_completion(job)
            self._refresh_job_power(job)
            self._record_telemetry()
        return _finish

    # -- lifecycle: node failures (fail-in-place, paper ref [40]) -------------------

    def fail_node(self, node_id: int,
                  repair_seconds: float = 4 * units.SECONDS_PER_HOUR) -> None:
        """Fail a node; the occupying job (if any) dies and is requeued.

        Failure semantics follow standard MPI practice: losing one node
        kills the whole job.  Jobs flagged ``suspendable`` are assumed to
        checkpoint on their own and keep their banked progress; others
        restart from scratch.  The node returns to service after
        ``repair_seconds``.
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
            assert node.job_id is not None
            job = self.running.get(node.job_id)
            if job is None:  # pragma: no cover - bookkeeping guard
                raise RuntimeError("busy node with unknown job")
            for evmap in (self._completion_events, self._phase_events):
                ev = evmap.pop(job.job_id, None)
                if ev is not None:
                    ev.cancel()
            self._phase.pop(job.job_id, None)
            self.cluster.release(job.job_id)
            job.requeue(self.now, lose_progress=not job.suspendable)
            self.running.pop(job.job_id, None)
            self.accounts[job.job_id].current_power_w = 0.0
            self.pending.append(job)

        self.cluster.mark_down(node_id)
        self.engine.schedule_in(repair_seconds, self._repair_fn(node_id),
                                priority=PRIO_PHASE,
                                label=f"repair:{node_id}")
        self._record_telemetry()
        self._schedule_pass()

    def _repair_fn(self, node_id: int):
        def _repair() -> None:
            self._accrue_all()
            self.cluster.repair(node_id)
            self._record_telemetry()
            self._schedule_pass()
        return _repair

    # -- lifecycle: malleable resize (§3.2) -----------------------------------------------

    def resize_job(self, job: Job, n_nodes: int) -> None:
        """Grow or shrink a running malleable job to ``n_nodes``."""
        if job.state is not JobState.RUNNING or not job.is_malleable:
            raise ValueError(f"job {job.job_id} cannot be resized")
        if self._phase.get(job.job_id) is not None:
            raise ValueError(f"job {job.job_id} is mid-phase")
        current = job.nodes_allocated
        if n_nodes == current:
            return
        self._accrue_all()
        if n_nodes > current:
            if self.cluster.n_free < n_nodes - current:
                raise ValueError("not enough free nodes to grow")
            self.cluster.grow(job.job_id, n_nodes - current, job.utilization)
        else:
            self.cluster.shrink(job.job_id, current - n_nodes)
        cap = self.job_caps.get(job.job_id)
        if cap is not None:
            self.cluster.set_job_cap(job.job_id, cap)
        job.resize(self.now, n_nodes)
        self._schedule_completion(job)
        self._refresh_job_power(job)
        self._record_telemetry()

    # -- scheduling pass --------------------------------------------------------------------

    def _expected_ends(self) -> Dict[int, float]:
        out: Dict[int, float] = {}
        for jid, job in self.running.items():
            assert job.start_time is not None
            est = job.start_time + job.runtime_estimate
            out[jid] = max(est, self.now + 60.0)  # overran estimate: assume soon
        return out

    def _schedule_pass(self) -> None:
        ctx = SchedulingContext(
            now=self.now,
            pending=self.queues.order(self.pending),
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
            reg.gauge("rjms.pending_jobs").set(len(self.pending))
            reg.gauge("rjms.running_jobs").set(len(self.running))
        seen = set()
        need = 0
        for d in decisions:
            if d.job.job_id in seen:
                raise ValueError(f"policy started job {d.job.job_id} twice")
            if d.job not in self.pending:
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
            # telemetry is sampled after capping: the pre-cap state has
            # zero duration and would show phantom budget overshoots
            self._record_telemetry()

    # -- tick ------------------------------------------------------------------------------------

    def _tick(self) -> None:
        self._accrue_all()
        for mgr in self._managers:
            mgr.on_tick(self)
        self._schedule_pass()
        # sample telemetry only after managers and scheduling settle —
        # mid-redistribution states have zero duration and would show
        # phantom budget overshoots
        self._record_telemetry()
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
            power_trace=self.cluster.power_trace(),
            provider=self.provider,
            telemetry=self.telemetry,
        )
