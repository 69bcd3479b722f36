"""E16 (extension) — Federated follow-the-green routing across sites.

The spatial counterpart of §3.3's temporal shifting: route each job at
submission to the federation site whose forecast intensity over the
job's runtime is lowest (with a queue-pressure guard).  Three sites
with persistently different levels (FR nuclear / DE mixed / PL coal).

Expected shape: follow-the-green beats uniform spreading, which beats
running everything at the brownest site; the queue-pressure term keeps
waits civilized compared with naive greedy routing.
"""

import copy

from benchmarks.conftest import report
from repro import units
from repro.grid import SyntheticProvider
from repro.parallel.scenarios import node_model
from repro.scheduler import EasyBackfillPolicy, Site, run_federation
from repro.simulator import (
    Cluster,
    WorkloadConfig,
    WorkloadGenerator,
)

PM = node_model()
ZONES = ("FR", "DE", "PL")


def make_sites():
    return [Site(name=z.lower(),
                 cluster_factory=lambda: Cluster(16, PM,
                                                 idle_power_off=True),
                 provider=SyntheticProvider(z, seed=31),
                 policy_factory=EasyBackfillPolicy,
                 n_nodes=16)
            for z in ZONES]


def make_workload():
    cfg = WorkloadConfig(n_jobs=90, mean_interarrival_s=1500.0,
                         max_nodes_log2=3,
                         runtime_median_s=2 * units.SECONDS_PER_HOUR)
    return WorkloadGenerator(cfg, seed=23).generate()


def run_strategies():
    jobs = make_workload()
    out = {}

    # follow-the-green (greedy with queue pressure)
    out["follow-the-green"] = run_federation(
        copy.deepcopy(jobs), make_sites(), queue_penalty_g_per_kwh=30.0)

    # uniform round-robin spreading
    rr = {j.job_id: ZONES[i % 3].lower()
          for i, j in enumerate(sorted(jobs, key=lambda j: j.job_id))}
    out["round-robin"] = run_federation(copy.deepcopy(jobs), make_sites(),
                                        assignment=rr)

    # everything at the brownest site
    out["all-at-PL"] = run_federation(
        copy.deepcopy(jobs), make_sites(),
        assignment={j.job_id: "pl" for j in jobs})
    return out


def test_bench_federation(benchmark):
    results = benchmark.pedantic(run_strategies, rounds=1, iterations=1)

    for name, fed in results.items():
        done = sum(len(r.completed_jobs)
                   for r in fed.site_results.values())
        assert done == 90, name

    green = results["follow-the-green"].total_carbon_kg
    rr = results["round-robin"].total_carbon_kg
    brown = results["all-at-PL"].total_carbon_kg
    assert green < rr < brown

    # the greedy router still uses all three sites (queue guard works)
    fed = results["follow-the-green"]
    used = [z for z in ("fr", "de", "pl") if fed.jobs_at(z) > 0]
    assert "fr" in used and len(used) >= 2

    lines = [f"{'strategy':>17s} {'carbon kg':>10s} {'saving':>8s} "
             f"{'mean wait h':>12s} {'fr/de/pl jobs':>15s}"]
    for name, fed in results.items():
        saving = (brown - fed.total_carbon_kg) / brown * 100
        split = "/".join(str(fed.jobs_at(z)) for z in ("fr", "de", "pl"))
        wait_h = fed.mean_wait_s / units.SECONDS_PER_HOUR
        lines.append(f"{name:>17s} {fed.total_carbon_kg:10.1f} "
                     f"{saving:7.1f}% {wait_h:12.2f} "
                     f"{split:>15s}")
    report("E16 — federated follow-the-green routing (extension)",
           "\n".join(lines))
