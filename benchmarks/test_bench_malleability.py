"""E9 — Carbon-aware dynamic resource scaling via malleability (§3.2).

The envisioned experiment: "limiting the number of available nodes is an
effective approach to keep the system under the given total power
budget, which in turn can considerably change depending on the carbon
intensity".  A malleable workload tracks a carbon-scaled power budget by
resizing jobs; the rigid baseline can only queue.

Expected shape: under the same time-varying budget, the malleable fleet
(a) respects the budget via allocation instead of deep caps, and
(b) finishes sooner than the rigid fleet, because shrinking beats
waiting.  The world is ``repro.parallel.scenarios.malleable_site``.
"""

from benchmarks.conftest import report
from repro import units
from repro.parallel.scenarios import malleable_site


def run_fleets():
    return {name: malleable_site(malleable).run()
            for name, malleable in [("rigid", False), ("malleable", True)]}


def test_bench_malleability(benchmark):
    results = benchmark.pedantic(run_fleets, rounds=1, iterations=1)
    rigid, malleable = results["rigid"], results["malleable"]

    assert len(rigid.completed_jobs) == 70
    assert len(malleable.completed_jobs) == 70

    # §3.2 headline: malleability turns power scarcity into resizing
    # rather than queueing — throughput improves.  (Mean *wait* can be
    # slightly worse: grown jobs hold nodes that arrivals must wait
    # for; turnaround and makespan are the §3.2 figures of merit.)
    assert malleable.makespan_s <= rigid.makespan_s * 1.02
    assert malleable.mean_turnaround_s <= rigid.mean_turnaround_s * 1.05

    lines = [f"{'fleet':>10s} {'carbon kg':>10s} {'makespan h':>11s} "
             f"{'mean wait h':>12s} {'energy kWh':>11s}"]
    for name, r in results.items():
        lines.append(f"{name:>10s} {r.total_carbon_kg:10.1f} "
                     f"{r.makespan_s / units.SECONDS_PER_HOUR:11.1f} "
                     f"{r.mean_wait_s / units.SECONDS_PER_HOUR:12.2f} "
                     f"{r.total_energy_kwh:11.0f}")
    report("E9 — malleability under a carbon-scaled power budget (§3.2)",
           "\n".join(lines))
