"""E10 — Carbon-aware backfill vs FCFS/EASY, with forecast ablation (§3.3).

The envisioned experiment: "intelligent carbon-aware scheduling plugins
... can intelligently backfill submitted jobs with suitable execution
times during green periods", "combined with forecasting techniques".

Expected shape:
* FCFS is the throughput floor; EASY matches or beats its waits;
* carbon-aware backfill cuts total carbon vs EASY at a queue-wait cost;
* the saving is ordered by forecast quality: persistence (flat forecast
  never finds a better window: 0 saving) <= AR/seasonal-naive <= oracle.

The world is ``repro.parallel.scenarios.backfill_world``.
"""

import pytest

from benchmarks.conftest import report
from repro import units
from repro.parallel.scenarios import backfill_world

SCENARIOS = ["fcfs", "easy", "carbon-persist", "carbon-sn", "carbon-ar",
             "carbon-oracle"]


def run_all():
    return {name: backfill_world(name).run() for name in SCENARIOS}


def test_bench_scheduling(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    for name, r in results.items():
        assert len(r.completed_jobs) == 250, name

    easy = results["easy"].total_carbon_kg
    fcfs = results["fcfs"].total_carbon_kg
    sn = results["carbon-sn"].total_carbon_kg
    ar = results["carbon-ar"].total_carbon_kg
    pers = results["carbon-persist"].total_carbon_kg
    oracle = results["carbon-oracle"].total_carbon_kg

    # EASY beats or matches FCFS on wait time
    assert results["easy"].mean_wait_s <= \
        results["fcfs"].mean_wait_s + 1.0

    # carbon-aware saves vs EASY; oracle is the bound; persistence ~ EASY
    assert sn < easy * 0.99
    assert ar < easy * 0.99
    assert oracle <= min(sn, ar) + 1e-6
    assert pers == pytest.approx(easy, rel=1e-6)

    lines = [f"{'policy':>15s} {'carbon kg':>10s} {'saving':>8s} "
             f"{'mean wait h':>12s}"]
    for name, r in results.items():
        saving = (easy - r.total_carbon_kg) / easy * 100
        wait_h = r.mean_wait_s / units.SECONDS_PER_HOUR
        lines.append(f"{name:>15s} {r.total_carbon_kg:10.1f} "
                     f"{saving:7.1f}% {wait_h:12.2f}")
    report("E10 — carbon-aware backfill + forecast ablation (§3.3)",
           "\n".join(lines))
