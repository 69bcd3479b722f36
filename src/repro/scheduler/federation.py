"""Federated follow-the-green job routing across sites.

A natural extension of §3: once jobs carry carbon profiles and sites
publish intensity signals, a federation can route work to the currently
greenest site — the spatial counterpart of §3.3's temporal shifting
(and what EuroHPC-scale federations could do operationally).

The dispatcher routes each job at *submission time* using the sites'
intensity forecasts over the job's expected runtime plus a queue-
pressure penalty (a greedy online policy: no future knowledge beyond
the forecasts, no job migration after routing).  Each site then runs
its own RJMS instance on its own cluster; results are aggregated by
:func:`run_federation`.

This is deliberately submission-time routing, not live migration:
inter-site checkpoint shipping is far more invasive, and the greedy
router already captures most of the spatial-arbitrage value when zone
levels differ persistently (see bench E16).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.grid.providers import CarbonIntensityProvider
from repro.scheduler.rjms import RJMS, SchedulerPolicy, SimulationResult
from repro.simulator.cluster import Cluster
from repro.simulator.jobs import Job
from repro import units

__all__ = ["Site", "FederationResult", "route_jobs", "run_federation"]


@dataclass
class Site:
    """One federation member: a cluster factory plus its grid signal.

    ``cluster_factory`` builds a fresh cluster per run (clusters are
    stateful); ``policy_factory`` builds the site's scheduling policy.
    """

    name: str
    cluster_factory: Callable[[], Cluster]
    provider: CarbonIntensityProvider
    policy_factory: Callable[[], SchedulerPolicy]
    n_nodes: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("site needs a name")
        if self.n_nodes < 1:
            raise ValueError("site needs at least one node")


@dataclass
class FederationResult:
    """Aggregated outcome of a federated run."""

    site_results: Dict[str, SimulationResult]
    assignment: Dict[int, str]

    @property
    def total_carbon_kg(self) -> float:
        return sum(r.total_carbon_kg for r in self.site_results.values())

    @property
    def total_energy_kwh(self) -> float:
        return sum(r.total_energy_kwh for r in self.site_results.values())

    @property
    def mean_wait_s(self) -> float:
        waits = [j.wait_time for r in self.site_results.values()
                 for j in r.jobs if j.start_time is not None]
        return float(np.mean(waits)) if waits else 0.0

    def jobs_at(self, site_name: str) -> int:
        return sum(1 for s in self.assignment.values() if s == site_name)


def route_jobs(jobs: Sequence[Job], sites: Sequence[Site],
               queue_penalty_g_per_kwh: float = 30.0) -> Dict[int, str]:
    """Greedy follow-the-green routing at submission time.

    For each job (in submission order) every site is scored as::

        score = forecast mean CI over [submit, submit + estimate]
                + queue_penalty * (pending node-hours / site capacity)

    and the job goes to the lowest score.  The queue term keeps the
    greenest site from collapsing under the whole workload — the
    classic price-of-anarchy guard.  Routing uses only each site's own
    published signal (its provider's history clamped at 'now' would be
    the honest choice; we use the provider directly, which equals an
    oracle forecast — bench E16 reports both variants).
    """
    if not sites:
        raise ValueError("no sites to route to")
    if queue_penalty_g_per_kwh < 0:
        raise ValueError("queue penalty must be non-negative")
    names = [s.name for s in sites]
    if len(set(names)) != len(names):
        raise ValueError("duplicate site names")

    backlog_node_s = {s.name: 0.0 for s in sites}
    last_t = 0.0
    assignment: Dict[int, str] = {}
    for job in sorted(jobs, key=lambda j: (j.submit_time, j.job_id)):
        # fluid drain: each site processes n_nodes node-seconds per
        # second, so backlog decays between submissions — without this
        # the penalty grows without bound and overrides any CI gap
        dt = max(0.0, job.submit_time - last_t)
        last_t = max(last_t, job.submit_time)
        for site in sites:
            backlog_node_s[site.name] = max(
                0.0, backlog_node_s[site.name] - site.n_nodes * dt)

        best_name, best_score = None, None
        for site in sites:
            t0 = max(0.0, job.submit_time)
            t1 = t0 + max(job.runtime_estimate, 3600.0)
            ci = site.provider.history(t0, t1).mean_over(t0, t1)
            # pressure = hours of backlog ahead of this job
            pressure = (backlog_node_s[site.name]
                        / (site.n_nodes * units.SECONDS_PER_HOUR))
            score = ci + queue_penalty_g_per_kwh * pressure
            if best_score is None or score < best_score:
                best_name, best_score = site.name, score
        assert best_name is not None
        assignment[job.job_id] = best_name
        backlog_node_s[best_name] += job.nodes_requested \
            * job.runtime_estimate
    return assignment


def run_federation(jobs: Sequence[Job], sites: Sequence[Site],
                   assignment: Optional[Dict[int, str]] = None,
                   queue_penalty_g_per_kwh: float = 30.0) -> FederationResult:
    """Route (unless given) and run the workload across the federation.

    Jobs too wide for their assigned site are re-routed to the largest
    site (a router must never produce unrunnable work).
    """
    if assignment is None:
        assignment = route_jobs(jobs, sites, queue_penalty_g_per_kwh)
    by_name = {s.name: s for s in sites}
    biggest = max(sites, key=lambda s: s.n_nodes)

    per_site_jobs: Dict[str, List[Job]] = {s.name: [] for s in sites}
    final_assignment: Dict[int, str] = {}
    for job in jobs:
        target = by_name.get(assignment.get(job.job_id, ""))
        if target is None:
            raise ValueError(f"job {job.job_id} routed to unknown site")
        if job.nodes_requested > target.n_nodes:
            target = biggest
        if job.nodes_requested > target.n_nodes:
            raise ValueError(
                f"job {job.job_id} ({job.nodes_requested} nodes) fits "
                "no site")
        per_site_jobs[target.name].append(copy.deepcopy(job))
        final_assignment[job.job_id] = target.name

    results: Dict[str, SimulationResult] = {}
    for site in sites:
        site_jobs = per_site_jobs[site.name]
        if not site_jobs:
            continue
        rjms = RJMS(site.cluster_factory(), site_jobs,
                    site.policy_factory(), provider=site.provider)
        results[site.name] = rjms.run()
    return FederationResult(site_results=results,
                            assignment=final_assignment)
