"""Tests for federated follow-the-green routing."""

import pytest

from repro.grid import StaticProvider, SyntheticProvider
from repro.scheduler import (
    EasyBackfillPolicy,
    Site,
    route_jobs,
    run_federation,
)
from repro.simulator import (
    Cluster,
    ComponentPowerModel,
    NodePowerModel,
    WorkloadConfig,
    WorkloadGenerator,
)

HOUR = 3600.0
PM = NodePowerModel(cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2)


def make_site(name, provider, n_nodes=16):
    return Site(name=name,
                cluster_factory=lambda: Cluster(n_nodes, PM,
                                                idle_power_off=True),
                provider=provider,
                policy_factory=EasyBackfillPolicy,
                n_nodes=n_nodes)


def workload(n_jobs=60, seed=19):
    cfg = WorkloadConfig(n_jobs=n_jobs, mean_interarrival_s=2500.0,
                         max_nodes_log2=3, runtime_median_s=2 * HOUR)
    return WorkloadGenerator(cfg, seed=seed).generate()


class TestRouting:
    def test_greener_site_preferred(self):
        jobs = workload(20)
        sites = [make_site("green", StaticProvider(50.0)),
                 make_site("brown", StaticProvider(500.0))]
        assignment = route_jobs(jobs, sites)
        green_count = sum(1 for s in assignment.values() if s == "green")
        assert green_count > len(jobs) * 0.6

    def test_queue_penalty_balances(self):
        """A strong penalty spreads load even with a CI gap."""
        jobs = workload(60)
        sites = [make_site("green", StaticProvider(100.0)),
                 make_site("brown", StaticProvider(140.0))]
        greedy = route_jobs(jobs, sites, queue_penalty_g_per_kwh=0.0)
        balanced = route_jobs(jobs, sites, queue_penalty_g_per_kwh=300.0)
        assert sum(1 for s in greedy.values() if s == "green") == 60
        brown_share = sum(1 for s in balanced.values() if s == "brown")
        assert brown_share > 5

    def test_every_job_routed(self):
        jobs = workload(30)
        sites = [make_site("a", StaticProvider(100.0)),
                 make_site("b", StaticProvider(100.0))]
        assignment = route_jobs(jobs, sites)
        assert set(assignment) == {j.job_id for j in jobs}

    def test_validation(self):
        with pytest.raises(ValueError):
            route_jobs([], [])
        sites = [make_site("a", StaticProvider(1.0)),
                 make_site("a", StaticProvider(1.0))]
        with pytest.raises(ValueError, match="duplicate"):
            route_jobs(workload(3), sites)


class TestRunFederation:
    def test_all_jobs_complete_somewhere(self):
        jobs = workload(40)
        sites = [make_site("fr", SyntheticProvider("FR", seed=1)),
                 make_site("pl", SyntheticProvider("PL", seed=1))]
        result = run_federation(jobs, sites)
        done = sum(len(r.completed_jobs)
                   for r in result.site_results.values())
        assert done == 40
        assert result.jobs_at("fr") + result.jobs_at("pl") == 40

    def test_follow_the_green_beats_single_brown_site(self):
        """Routing to the greener zone cuts total carbon vs running
        everything in the browner zone."""
        jobs = workload(40)
        fr = make_site("fr", SyntheticProvider("FR", seed=1))
        pl = make_site("pl", SyntheticProvider("PL", seed=1))
        federated = run_federation(jobs, [fr, pl])
        all_brown = run_federation(
            jobs, [pl], assignment={j.job_id: "pl" for j in jobs})
        assert federated.total_carbon_kg < all_brown.total_carbon_kg

    def test_oversized_job_rerouted_to_biggest(self):
        jobs = workload(10)
        small = make_site("small", StaticProvider(10.0), n_nodes=2)
        big = make_site("big", StaticProvider(500.0), n_nodes=16)
        # greedy routing would pick 'small' for everything (CI 10)
        result = run_federation(jobs, [small, big])
        for job in jobs:
            if job.nodes_requested > 2:
                assert result.assignment[job.job_id] == "big"

    def test_unknown_site_in_assignment(self):
        jobs = workload(3)
        sites = [make_site("a", StaticProvider(1.0))]
        with pytest.raises(ValueError, match="unknown site"):
            run_federation(jobs, sites,
                           assignment={j.job_id: "mars" for j in jobs})

    def test_aggregates(self):
        jobs = workload(20)
        sites = [make_site("a", StaticProvider(100.0)),
                 make_site("b", StaticProvider(100.0))]
        result = run_federation(jobs, sites)
        assert result.total_energy_kwh > 0
        assert result.total_carbon_kg == pytest.approx(
            result.total_energy_kwh * 100.0 / 1000.0, rel=1e-9)
        assert result.mean_wait_s >= 0
