"""E8 — Carbon-aware dynamic power budget scaling (§3.1).

The envisioned experiment: a PowerStack whose *total system power
budget* tracks grid carbon intensity (more power when green, less when
red) versus the carbon-blind static budget.  Comparison is
energy-neutral by construction: the linear policy's anchors are set so
its time-average budget matches the static one.

The three policy scenarios run as a one-parameter grid through the
parallel sweep executor (``workers=2``) — each cell is a full seeded
simulation rebuilt from scratch inside its worker process.

Expected shape: the carbon-aware policy cuts carbon relative to the
static budget at equal(ish) delivered work, with a modest makespan cost;
an ablation shows the saving under the *average* (damped) intensity
signal is smaller than under the *marginal* signal — the paper's
marginal-vs-average distinction [2].
"""

import pytest

from benchmarks.conftest import report
from repro.grid import SyntheticProvider
from repro.parallel import run_sweep
from repro.powerstack import (
    LinearScalingPolicy,
    PowerBudgetPolicy,
    SiteController,
    StaticBudgetPolicy,
)
from repro.scheduler import RJMS, EasyBackfillPolicy
from repro.simulator import (
    Cluster,
    ComponentPowerModel,
    NodePowerModel,
    WorkloadConfig,
    WorkloadGenerator,
)

HOUR = 3600.0
PM = NodePowerModel(cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2)
N_NODES = 16
N_JOBS = 90


def make_workload():
    cfg = WorkloadConfig(n_jobs=N_JOBS, mean_interarrival_s=2200.0,
                         max_nodes_log2=3, runtime_median_s=3 * HOUR,
                         runtime_sigma=0.8)
    return WorkloadGenerator(cfg, seed=17).generate()


class _MarginalAsSpot:
    """Expose the provider's *average* signal as the spot intensity —
    the ablation where the policy watches the damped signal."""

    def __init__(self, provider):
        self._p = provider
        self.zone_code = provider.zone_code

    def intensity_at(self, t):
        return self._p.average_intensity_at(t)

    def history(self, a, b):
        return self._p.history(a, b)


class _Watching(PowerBudgetPolicy):
    """Budget policy that watches ``provider`` instead of the one the
    RJMS accounts carbon against (the signal ablation)."""

    def __init__(self, policy, provider):
        self.policy, self.provider = policy, provider

    def budget(self, provider, now):
        return self.policy.budget(self.provider, now)


def _budget_policy(name):
    peak, idle = PM.peak_watts, PM.idle_watts
    # static budget ~70% of max dynamic capacity
    static_b = 11 * peak + 5 * idle
    # linear anchors chosen so the time-average budget over the DE CI
    # distribution matches the static budget (energy-neutral comparison)
    lo = 7 * peak + 9 * idle
    hi = 15 * peak + 1 * idle
    if name == "static":
        return StaticBudgetPolicy(static_b)
    policy = LinearScalingPolicy(lo, hi, 350.0, 490.0)
    if name == "carbon-avg-signal":
        return _Watching(policy,
                         _MarginalAsSpot(SyntheticProvider("DE", seed=23)))
    return policy


def power_cell(policy):
    """Module-level (picklable) sweep cell: one full PowerStack run."""
    cluster = Cluster(N_NODES, PM)
    accounting = SyntheticProvider("DE", seed=23)
    rjms = RJMS(cluster, make_workload(), EasyBackfillPolicy(),
                provider=accounting)
    rjms.register_manager(SiteController(_budget_policy(policy), cluster))
    r = rjms.run()
    return {"carbon_kg": r.total_carbon_kg,
            "energy_kwh": r.total_energy_kwh,
            "makespan_h": r.makespan_s / HOUR,
            "completed": float(len(r.completed_jobs))}


POLICIES = ["static", "carbon-linear", "carbon-avg-signal"]


def run_policies():
    return run_sweep(power_cell, grid={"policy": POLICIES},
                     metric_names=["carbon_kg", "energy_kwh",
                                   "makespan_h", "completed"],
                     workers=2)


def test_bench_power_scaling(benchmark):
    table = benchmark.pedantic(run_policies, rounds=1, iterations=1)

    assert table.stats.mode == "process-pool"
    assert table.failures == []

    carbon_by = dict(zip(table.column("policy"),
                         table.column("carbon_kg")))

    # all scenarios deliver the full workload
    assert all(c == float(N_JOBS) for c in table.column("completed"))

    # the headline: carbon-aware scaling saves carbon vs static
    assert carbon_by["carbon-linear"] < carbon_by["static"]

    # ablation: watching the damped average signal saves less than
    # watching the marginal signal (or at best ties)
    assert (carbon_by["carbon-linear"]
            <= carbon_by["carbon-avg-signal"] + 1e-6)

    lines = [f"{'policy':>18s} {'carbon kg':>10s} {'energy kWh':>11s} "
             f"{'makespan h':>11s} {'saving':>8s}"]
    for row in table.rows:
        saving = (carbon_by["static"] - row["carbon_kg"]) \
            / carbon_by["static"] * 100
        lines.append(f"{row['policy']:>18s} {row['carbon_kg']:10.1f} "
                     f"{row['energy_kwh']:11.0f} "
                     f"{row['makespan_h']:11.1f} {saving:7.1f}%")
    lines.append("")
    lines.append(f"sweep: {table.stats.n_cells} cells, "
                 f"{table.stats.mode}, workers={table.stats.workers}, "
                 f"{table.stats.wall_s:.1f} s wall")
    report("E8 — carbon-aware power budget scaling (§3.1)",
           "\n".join(lines))
