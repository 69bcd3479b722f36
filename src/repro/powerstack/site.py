"""Site controller: the closed-loop top of the PowerStack (§3.1).

Ties the layers together on every RJMS tick:

1. ask the :class:`~repro.powerstack.carbon_scaling.PowerBudgetPolicy`
   for the current total system power budget (the carbon-aware step);
2. hand the budget to the :class:`~repro.powerstack.sysmgr.SystemPowerManager`
   to split across running jobs;
3. convert each job budget into per-node caps via the
   :class:`~repro.powerstack.jobmgr.JobPowerManager` and apply them
   through the RJMS (which banks job progress and reschedules
   completions — the feedback half of the loop).

If the budget cannot even hold the current allocations at idle, the
controller *degrades gracefully*: it caps everything at the floor and
leaves allocation shrinking to the malleability manager (§3.2) — the
paper's explicit division of labour.

Steps 2 and 3 are a pure function of a few inputs: the budget, the
idle-node reserve, each running job's ``(job_id, nodes_allocated,
utilization)`` in ``running`` order and, in ``PRIORITY`` mode, each
job's priority value.  The controller keeps the caps of the last key of
those inputs and recomputes them only when the key changes; every tick
still reads the budget, logs it, and re-applies any kept cap that
differs from the job's current one (a resumed job, say).

Register the controller as an RJMS manager::

    rjms.register_manager(SiteController(policy, cluster))
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.powerstack.carbon_scaling import PowerBudgetPolicy
from repro.powerstack.jobmgr import JobPowerManager
from repro.powerstack.sysmgr import DistributionMode, SystemPowerManager
from repro.scheduler.rjms import RJMS
from repro.simulator.cluster import Cluster
from repro.simulator.jobs import Job, JobState

__all__ = ["SiteController"]


class SiteController:
    """Top-level PowerStack controller (register with the RJMS).

    Parameters
    ----------
    policy:
        The total-budget policy (static or carbon-aware).
    cluster:
        The controlled cluster (used for floors/demands).
    mode:
        How the system manager splits the budget across jobs.
    min_cap_fraction:
        Never cap a job below this fraction of its demand, even when
        the budget asks for it (prevents starving a job to ~0 progress;
        the remainder of the deficit is simply not enforced and shows
        up as budget overshoot in telemetry — as in real sites).
    """

    def __init__(self, policy: PowerBudgetPolicy, cluster: Cluster,
                 mode: DistributionMode = DistributionMode.DEMAND,
                 min_cap_fraction: float = 0.0) -> None:
        if not 0.0 <= min_cap_fraction < 1.0:
            raise ValueError("min_cap_fraction must be in [0, 1)")
        self.policy = policy
        self.sysmgr = SystemPowerManager(cluster, mode)
        self.jobmgr = JobPowerManager(cluster.power_model)
        self.min_cap_fraction = float(min_cap_fraction)
        #: (time, budget) history for inspection/benches
        self.budget_log: List[tuple] = []
        #: the inputs of the last cap computation, and its caps by job id
        self._key: Optional[tuple] = None
        self._caps: Dict[int, Optional[float]] = {}

    def on_jobs_started(self, rjms: RJMS) -> None:
        """RJMS hook: re-apply the budget the moment new jobs start,
        so nothing runs uncapped until the next tick."""
        self.on_tick(rjms)

    def on_tick(self, rjms: RJMS) -> None:
        budget = self.policy.budget(rjms.provider, rjms.now)
        self.budget_log.append((rjms.now, budget))
        jobs = [j for j in rjms.running.values()
                if j.state is JobState.RUNNING and j.nodes_allocated > 0]
        if not jobs:
            return
        key = self._inputs(budget, jobs)
        if key != self._key:
            self._key, self._caps = key, self._compute_caps(budget, jobs)
        for job in jobs:
            cap = self._caps[job.job_id]
            if cap != rjms.job_caps.get(job.job_id):
                rjms.set_job_cap(job, cap)

    def _inputs(self, budget: float, jobs: List[Job]) -> tuple:
        """Everything :meth:`_compute_caps` reads that can change between
        ticks (the power model, mode and ``min_cap_fraction`` are fixed)."""
        key = (budget, self.sysmgr.idle_floor_watts(),
               tuple([(j.job_id, j.nodes_allocated, j.utilization)
                      for j in jobs]))
        if self.sysmgr.mode is DistributionMode.PRIORITY:
            key += (tuple([self.sysmgr.priority_key(j) for j in jobs]),)
        return key

    def _compute_caps(self, budget: float,
                      jobs: List[Job]) -> Dict[int, Optional[float]]:
        """Per-node cap (None: uncapped) of each job, by job id."""
        try:
            grants = self.sysmgr.distribute(budget, jobs)
        except ValueError:
            # Budget below floor: cap everything at floor; shrinking is
            # the malleability manager's job (§3.2).
            grants = {j.job_id: self.sysmgr.job_floor_watts(j) for j in jobs}
        caps: Dict[int, Optional[float]] = {}
        for job in jobs:
            demand = self.sysmgr.job_demand_watts(job)
            grant = max(grants[job.job_id], self.min_cap_fraction * demand)
            caps[job.job_id] = None if grant >= demand - 1e-9 \
                else self.jobmgr.cap(grant, job.nodes_allocated)
        return caps
