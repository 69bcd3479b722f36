"""E17 (extension) — Countdown-style application energy saving (§3.4).

§3.4 points users to "application libraries such as Cesarini et al."
(COUNTDOWN) for proactive footprint reduction.  This bench regenerates
the library's headline curve — energy saved vs communication fraction —
and runs it through the simulator: the same workload with and without
Countdown-derived utilization, measuring cluster-level carbon.

Expected shape: savings grow with communication fraction, land in the
published ~6-15% band for typical MPI codes (10-25% comm), and runtime
is essentially unchanged (performance-neutral).
"""

import copy

import pytest

from benchmarks.conftest import report
from repro import units
from repro.grid import SyntheticProvider
from repro.parallel.scenarios import node_model
from repro.scheduler import RJMS, EasyBackfillPolicy
from repro.simulator import (
    ApplicationProfile,
    Cluster,
    WorkloadConfig,
    WorkloadGenerator,
    countdown_energy_saving,
    countdown_power_factor,
)

PM = node_model()
COMM_FRACTIONS = [0.0, 0.05, 0.10, 0.25, 0.40, 0.60]


def analytic_curve():
    return {f: countdown_energy_saving(ApplicationProfile(comm_fraction=f))
            for f in COMM_FRACTIONS}


def simulated_comparison(comm_fraction=0.25):
    """Run one workload with busy-wait vs Countdown utilizations."""
    cfg = WorkloadConfig(n_jobs=50, mean_interarrival_s=2500.0,
                         max_nodes_log2=3,
                         runtime_median_s=2 * units.SECONDS_PER_HOUR)
    base_jobs = WorkloadGenerator(cfg, seed=27).generate()
    profile = ApplicationProfile(comm_fraction=comm_fraction)
    out = {}
    for name, enabled in [("busy-wait", False), ("countdown", True)]:
        jobs = copy.deepcopy(base_jobs)
        util = countdown_power_factor(profile, enabled)
        for j in jobs:
            j.utilization = util
        cluster = Cluster(16, PM, idle_power_off=True)
        rjms = RJMS(cluster, jobs, EasyBackfillPolicy(),
                    provider=SyntheticProvider("DE", seed=5))
        out[name] = rjms.run()
    return out


def test_bench_countdown(benchmark):
    curve, sim = benchmark.pedantic(
        lambda: (analytic_curve(), simulated_comparison()),
        rounds=1, iterations=1)

    # the published band at typical comm fractions
    assert 0.04 < curve[0.10] < 0.12
    assert 0.12 < curve[0.25] < 0.25
    # monotone in comm fraction
    vals = [curve[f] for f in COMM_FRACTIONS]
    assert all(a <= b for a, b in zip(vals, vals[1:]))

    base, cd = sim["busy-wait"], sim["countdown"]
    # dynamic-energy saving shows up at cluster level...
    assert cd.total_energy_kwh < base.total_energy_kwh
    assert cd.total_carbon_kg < base.total_carbon_kg
    # ...and performance is neutral (identical schedules)
    assert cd.makespan_s == pytest.approx(base.makespan_s, rel=1e-6)

    lines = [f"{'comm fraction':>14s} {'energy saved':>13s}"]
    for f in COMM_FRACTIONS:
        lines.append(f"{f * 100:13.0f}% {curve[f] * 100:12.1f}%")
    lines.append("")
    saving = (base.total_carbon_kg - cd.total_carbon_kg) \
        / base.total_carbon_kg * 100
    lines.append(
        f"simulated 25%-comm workload: {base.total_carbon_kg:.1f} -> "
        f"{cd.total_carbon_kg:.1f} kg ({saving:.1f}% carbon saved, "
        f"makespan unchanged)")
    report("E17 — Countdown application energy saving (§3.4 ref [24])",
           "\n".join(lines))
