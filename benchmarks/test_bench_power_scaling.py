"""E8 — Carbon-aware dynamic power budget scaling (§3.1).

The envisioned experiment: a PowerStack whose *total system power
budget* tracks grid carbon intensity (more power when green, less when
red) versus the carbon-blind static budget.  Comparison is
energy-neutral by construction: the linear policy's anchors are set so
its time-average budget matches the static one.

The three policy scenarios run as a one-parameter grid through the
parallel sweep executor (``workers=2``) — each cell
(``repro.parallel.scenarios.power_cell``) is a full seeded simulation of
the ``power_site`` world, rebuilt from scratch inside its worker
process.

Expected shape: the carbon-aware policy cuts carbon relative to the
static budget at equal(ish) delivered work, with a modest makespan cost;
an ablation shows the saving under the *average* (damped) intensity
signal is smaller than under the *marginal* signal — the paper's
marginal-vs-average distinction [2].
"""

from benchmarks.conftest import report
from repro.parallel import run_sweep
from repro.parallel.scenarios import POWER_BUDGETS, power_cell

N_JOBS = 90


def run_policies():
    return run_sweep(power_cell, grid={"policy": list(POWER_BUDGETS)},
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
                 f"{table.stats.mode}, workers={table.stats.workers}")
    benchmark.extra_info["sweep_wall_s"] = table.stats.wall_s
    report("E8 — carbon-aware power budget scaling (§3.1)",
           "\n".join(lines))
