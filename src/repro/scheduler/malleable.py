"""Malleability manager: co-orchestrating nodes and power (§3.2).

"The system manager and job manager in the PowerStack combined with a
malleability supporting software stack should collaboratively and
dynamically orchestrate (1) job power budget, (2) node allocation, and
(3) power budget distributions across the allocated nodes simultaneously
during runtime."

This tick-driven manager keeps the cluster inside a (possibly
time-varying) power budget by *resizing malleable jobs* rather than only
capping — the paper's point that "limiting the number of available
nodes is an effective approach to keep the system under the given total
power budget":

* over budget -> shrink malleable jobs (smallest efficiency loss first)
  toward their ``min_nodes``; if still over, the PowerStack's caps (a
  separate manager) take care of the rest;
* under budget with idle nodes -> grow malleable jobs toward
  ``max_nodes`` while the headroom allows, preferring jobs with the
  best marginal speedup.

The budget callable makes the §3.1 coupling explicit: pass the site
controller's carbon-scaled budget and malleability follows the grid.
"""

from __future__ import annotations

from typing import Callable, List

from repro.scheduler.rjms import RJMS
from repro.simulator.jobs import Job, JobState

__all__ = ["MalleabilityManager"]


class MalleabilityManager:
    """Resize malleable jobs to track a power budget.

    Parameters
    ----------
    budget_watts:
        Either a constant or a callable ``f(now) -> watts`` (e.g. the
        carbon-aware scaling policy of §3.1).
    hysteresis_fraction:
        Dead band around the budget (relative) within which no resizing
        happens — prevents oscillation.
    """

    def __init__(self, budget_watts: float | Callable[[float], float],
                 hysteresis_fraction: float = 0.05) -> None:
        if not callable(budget_watts) and budget_watts <= 0:
            raise ValueError("budget must be positive")
        if not 0.0 <= hysteresis_fraction < 0.5:
            raise ValueError("hysteresis_fraction must be in [0, 0.5)")
        self._budget = budget_watts
        self.hysteresis = float(hysteresis_fraction)

    def budget_at(self, now: float) -> float:
        b = self._budget(now) if callable(self._budget) else float(self._budget)
        if b <= 0:
            raise ValueError("budget callable returned a non-positive budget")
        return b

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _malleable_running(rjms: RJMS) -> List[Job]:
        return [j for j in rjms.running.values()
                if j.is_malleable and j.state is JobState.RUNNING
                and not rjms.in_phase(j)]

    @staticmethod
    def _node_power(rjms: RJMS) -> float:
        """Approximate per-node draw of a busy node (for sizing steps)."""
        pm = rjms.cluster.power_model
        return pm.idle_watts + 0.85 * pm.dynamic_range_watts

    # -- manager hook -------------------------------------------------------------

    def on_tick(self, rjms: RJMS) -> None:
        budget = self.budget_at(rjms.now)
        power = rjms.cluster.current_power()
        dead_band = self.hysteresis * budget
        node_w = self._node_power(rjms)

        if power > budget + dead_band:
            self._shrink_until(rjms, power - budget, node_w)
        elif power < budget - dead_band:
            self._grow_until(rjms, budget - power, node_w)

    def _shrink_until(self, rjms: RJMS, excess_watts: float,
                      node_w: float) -> None:
        """Shed nodes from malleable jobs, least marginal-value first."""
        jobs = self._malleable_running(rjms)
        # Shrink the job whose last node contributes the least speedup.
        jobs.sort(key=lambda j: j.speedup.speedup(j.nodes_allocated)
                  - j.speedup.speedup(max(j.min_nodes, j.nodes_allocated - 1)))
        shed = 0.0
        for job in jobs:
            while (shed < excess_watts
                   and job.nodes_allocated > max(job.min_nodes, 1)):
                rjms.resize_job(job, job.nodes_allocated - 1)
                shed += node_w
            if shed >= excess_watts:
                return

    def _grow_until(self, rjms: RJMS, headroom_watts: float,
                    node_w: float) -> None:
        """Give idle nodes to malleable jobs, best marginal speedup first."""
        jobs = self._malleable_running(rjms)
        jobs.sort(key=lambda j: -(j.speedup.speedup(j.nodes_allocated + 1)
                                  - j.speedup.speedup(j.nodes_allocated)))
        used = 0.0
        for job in jobs:
            while (used + node_w <= headroom_watts
                   and rjms.cluster.n_free > 0
                   and job.nodes_allocated < job.max_nodes):
                rjms.resize_job(job, job.nodes_allocated + 1)
                used += node_w
            if used + node_w > headroom_watts or rjms.cluster.n_free == 0:
                return
