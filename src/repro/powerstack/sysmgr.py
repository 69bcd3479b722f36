"""System power manager: distribute the system budget across jobs.

The second PowerStack layer (§3.1): "the system management tool divides
and distributes the given power budget accordingly to the currently
running jobs".  Three distribution modes:

* ``DEMAND`` — proportional to each job's uncapped demand (nodes x peak
  draw at the job's utilization); the default, matching how
  demand-driven PowerStack prototypes behave;
* ``FAIR`` — equal dynamic budget per allocated node, regardless of
  demand;
* ``PRIORITY`` — jobs (ordered by a priority key) are filled to full
  demand one by one until the budget runs out; the rest idle at floor.

Every mode first reserves the non-negotiable floors: idle power of the
allocated nodes (caps cannot go below idle) and the draw of idle nodes
(the system manager cannot cap what the scheduler left empty).  The
distribution is exact: budgets sum to min(budget, total demand) — a
property test pins this conservation law.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.simulator.cluster import Cluster
from repro.simulator.jobs import Job
from repro.simulator.node import NodeState

__all__ = ["DistributionMode", "SystemPowerManager"]


class DistributionMode(enum.Enum):
    """How the system budget is split across running jobs."""

    DEMAND = "demand"
    FAIR = "fair"
    PRIORITY = "priority"


class SystemPowerManager:
    """Split a total system budget into per-job budgets (watts).

    Parameters
    ----------
    cluster:
        The cluster whose power model defines floors and demands.
    mode:
        Distribution mode.
    priority_key:
        For ``PRIORITY`` mode: jobs sorted ascending by this key get
        filled first (default: submit time, i.e. oldest first).
    """

    def __init__(self, cluster: Cluster,
                 mode: DistributionMode = DistributionMode.DEMAND,
                 priority_key: Optional[Callable[[Job], float]] = None) -> None:
        self.cluster = cluster
        self.mode = mode
        self.priority_key = priority_key or (lambda j: j.submit_time)

    # -- demand model ------------------------------------------------------------

    def job_floor_watts(self, job: Job) -> float:
        """Idle draw of the job's nodes (the cap floor)."""
        return job.nodes_allocated * self.cluster.power_model.idle_watts

    def job_demand_watts(self, job: Job) -> float:
        """Uncapped draw of the job at its utilization."""
        pm = self.cluster.power_model
        return job.nodes_allocated * pm.power(job.utilization, 1.0)

    def idle_floor_watts(self) -> float:
        """Draw of nodes not allocated to any job (scheduler's business)."""
        idle = sum(1 for nd in self.cluster.nodes
                   if nd.state is NodeState.IDLE)
        return idle * self.cluster.power_model.idle_watts

    # -- distribution ----------------------------------------------------------------

    def distribute(self, system_budget_watts: float,
                   jobs: List[Job]) -> Dict[int, float]:
        """Per-job power budgets under ``system_budget_watts``.

        Returns a dict job_id -> budget (>= the job's floor).  Raises if
        the budget cannot cover the floors — that situation must be
        resolved by allocation changes (§3.2), not by this layer.
        """
        if system_budget_watts <= 0:
            raise ValueError("system budget must be positive")
        jobs = [j for j in jobs if j.nodes_allocated > 0]
        floors = {j.job_id: self.job_floor_watts(j) for j in jobs}
        demands = {j.job_id: self.job_demand_watts(j) for j in jobs}
        reserve = self.idle_floor_watts()
        available = system_budget_watts - reserve - sum(floors.values())
        if available < -1e-9:
            raise ValueError(
                f"budget {system_budget_watts:.0f} W below power floor "
                f"{reserve + sum(floors.values()):.0f} W; "
                "reduce allocations (malleability) instead of capping")
        if not jobs:
            return {}
        headrooms = {jid: demands[jid] - floors[jid] for jid in floors}
        total_headroom = sum(headrooms.values())
        grant: Dict[int, float] = {}

        if total_headroom <= available + 1e-9:
            # Budget is plentiful: everyone runs uncapped.
            return {jid: demands[jid] for jid in floors}

        if self.mode is DistributionMode.DEMAND:
            for jid in floors:
                share = headrooms[jid] / total_headroom if total_headroom else 0
                grant[jid] = floors[jid] + share * available
        elif self.mode is DistributionMode.FAIR:
            # Equal dynamic watts per node, but never beyond a job's
            # demand; the leftover is re-spread by a water-filling pass.
            remaining = available
            live = dict(headrooms)
            grant = {jid: floors[jid] for jid in floors}
            nodes = {j.job_id: j.nodes_allocated for j in jobs}
            while remaining > 1e-6 and live:
                total_nodes = sum(nodes[jid] for jid in live)
                per_node = remaining / total_nodes
                spent = 0.0
                for jid in list(live):
                    give = min(per_node * nodes[jid], live[jid])
                    grant[jid] += give
                    live[jid] -= give
                    spent += give
                    if live[jid] <= 1e-9:
                        del live[jid]
                if spent <= 1e-9:
                    break
                remaining -= spent
        elif self.mode is DistributionMode.PRIORITY:
            ordered = sorted(jobs, key=self.priority_key)
            remaining = available
            grant = {jid: floors[jid] for jid in floors}
            for j in ordered:
                give = min(headrooms[j.job_id], remaining)
                grant[j.job_id] += give
                remaining -= give
                if remaining <= 1e-9:
                    break
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown mode {self.mode}")
        return grant
