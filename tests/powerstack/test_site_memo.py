"""The site controller's kept caps against recomputing them every tick.

:class:`RecomputingSiteController` is the controller as it was before it
kept its caps: every tick it redistributes the budget, scans the nodes
for the idle reserve and splits each grant into a per-node cap.
On the managed site of ``test_properties`` (node failures, carbon
suspend/resume, malleable resizes and caps), idle-on and idle-off, in
every distribution mode, both must make the same ``set_job_cap`` calls
at the same times and give the same schedule, energy and carbon, bit
for bit.  ``PRIORITY`` mode gets a priority that reorders the jobs every
hour, so the priority values are an input that moves on its own.
"""

import pytest

from repro.powerstack import DistributionMode, SiteController
from repro.powerstack.sysmgr import SystemPowerManager
from repro.simulator import JobState, NodeState
from tests.integration.test_properties import HOUR, managed_site

SEEDS = range(6)


class ScanSystemPowerManager(SystemPowerManager):
    """Counts the idle nodes by scanning them, as before the cluster
    kept the count."""

    def idle_floor_watts(self) -> float:
        idle = sum(1 for nd in self.cluster.nodes
                   if nd.state is NodeState.IDLE)
        return idle * self.cluster.power_model.idle_watts


class RecomputingSiteController(SiteController):
    """Recomputes every job's cap on every tick."""

    def __init__(self, policy, cluster, **kwargs):
        super().__init__(policy, cluster, **kwargs)
        self.sysmgr = ScanSystemPowerManager(cluster, self.sysmgr.mode)

    def on_tick(self, rjms) -> None:
        budget = self.policy.budget(rjms.provider, rjms.now)
        self.budget_log.append((rjms.now, budget))
        jobs = [j for j in rjms.running.values()
                if j.state is JobState.RUNNING and j.nodes_allocated > 0]
        if not jobs:
            return
        try:
            grants = self.sysmgr.distribute(budget, jobs)
        except ValueError:
            grants = {j.job_id: self.sysmgr.job_floor_watts(j) for j in jobs}
        for job in jobs:
            grant = grants.get(job.job_id)
            if grant is None:
                continue
            demand = self.sysmgr.job_demand_watts(job)
            grant = max(grant, self.min_cap_fraction * demand)
            if grant >= demand - 1e-9:
                cap = None
            else:
                cap = self.jobmgr.cap(grant, job.nodes_allocated)
            if cap != rjms.job_caps.get(job.job_id):
                rjms.set_job_cap(job, cap)


def hourly_priority(rjms):
    """A priority that reorders the running jobs every simulated hour."""
    return lambda job: (job.job_id * 2654435761
                        + int(rjms.now // HOUR) * 40503) % 1009


def run(controller, seed, idle_power_off, mode):
    """The managed site under ``controller``: its cap calls as
    ``(time, job, cap)``, each job's schedule, and the totals."""
    made = []

    def site(policy, cluster):
        made.append(controller(policy, cluster, mode=mode))
        return made[-1]

    rjms = managed_site(seed, idle_power_off, site=site)
    if mode is DistributionMode.PRIORITY:
        made[0].sysmgr.priority_key = hourly_priority(rjms)
    calls = []
    set_job_cap = rjms.set_job_cap

    def recorded(job, cap):
        calls.append((rjms.now, job.job_id, cap))
        set_job_cap(job, cap)
    rjms.set_job_cap = recorded
    result = rjms.run()
    schedule = [(j.job_id, j.state, j.start_time, j.end_time,
                 j.n_suspensions, j.n_restarts) for j in result.jobs]
    return (calls, schedule, result.total_energy_kwh,
            result.total_carbon_kg)


@pytest.mark.parametrize("mode", list(DistributionMode),
                         ids=lambda m: m.value)
@pytest.mark.parametrize("idle_power_off", [False, True],
                         ids=["idle-on", "idle-off"])
def test_kept_caps_equal_recomputed(idle_power_off, mode):
    for seed in SEEDS:
        kept = run(SiteController, seed, idle_power_off, mode)
        recomputed = run(RecomputingSiteController, seed, idle_power_off,
                         mode)
        assert kept[0], f"seed {seed} made no cap calls"
        assert kept == recomputed, f"seed {seed}"

