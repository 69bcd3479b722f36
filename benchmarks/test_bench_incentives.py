"""E12 — Job carbon reports, over-allocation, and green incentives (§3.4).

The envisioned experiment:
* extend DCDB-style analytics to per-job carbon profiles in job reports;
* quantify the over-allocation pathology ("many users allocate more
  nodes to their jobs than they require");
* charge only a fraction of core-hours consumed during green periods,
  making the §3.3 synergy measurable in the ledger.

Expected shape: over-allocating workloads emit measurably more carbon
for the same delivered work; green discounting shifts billed core-hours
below raw ones, most for jobs the carbon-aware scheduler placed in
green windows.  The world is
``repro.parallel.scenarios.incentive_world``.
"""

from benchmarks.conftest import report
from repro.accounting import (
    CoreHourLedger,
    GreenDiscountPolicy,
    build_job_report,
    charge_with_incentive,
)
from repro.parallel.scenarios import incentive_world


def right_size(jobs):
    """The counterfactual: the same trace with every job requesting only
    the nodes it actually uses (what §3.4's awareness campaign is for)."""
    from repro.simulator import Job

    out = []
    for j in jobs:
        out.append(Job(
            job_id=j.job_id, submit_time=j.submit_time,
            nodes_requested=j.nodes_used,
            runtime_estimate=j.runtime_estimate,
            work_seconds=j.work_seconds, kind=j.kind, speedup=j.speedup,
            nodes_used=j.nodes_used, utilization=j.utilization,
            suspendable=j.suspendable, project=j.project, user=j.user))
    return out


def run_experiment():
    return {"well-sized": incentive_world(transform=right_size).run(),
            "over-allocated": incentive_world().run(),
            "over-alloc+carbon-sched": incentive_world("carbon").run()}


def bill(result, green_rate=0.5):
    provider = result.provider
    t_end = max(j.end_time for j in result.completed_jobs)
    signal = provider.history(0.0, t_end + 1.0)
    ledger = CoreHourLedger(cores_per_node=48)
    for p in {j.project for j in result.jobs}:
        ledger.open_project(p, 1e9)
    policy = GreenDiscountPolicy(green_rate=green_rate)
    for job in result.completed_jobs:
        inc = charge_with_incentive(
            [(job.start_time, job.end_time)], job.nodes_requested, 48,
            signal, policy)
        ledger.charge_job(job.job_id, job.project, inc.raw_core_hours,
                          inc.billed_core_hours, inc.green_fraction)
    return ledger


def test_bench_incentives(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    well = results["well-sized"]
    over = results["over-allocated"]
    green = results["over-alloc+carbon-sched"]

    for r in results.values():
        assert len(r.completed_jobs) == 100

    # over-allocation burns more carbon for the same delivered work
    assert over.total_carbon_kg > well.total_carbon_kg * 1.05

    # job reports quantify the waste per job
    provider = over.provider
    wasted = [build_job_report(j, over.accounts[j.job_id], provider)
              for j in over.completed_jobs]
    total_waste = sum(r.overallocation_waste_kwh for r in wasted)
    assert total_waste > 0

    # incentive ledger: discounts flow, and the carbon-aware schedule
    # earns at least as much discount as the carbon-blind one
    ledger_over = bill(over)
    ledger_green = bill(green)
    assert ledger_over.total_discounts() > 0
    assert ledger_green.total_discounts() >= \
        ledger_over.total_discounts() * 0.9

    lines = [f"{'scenario':>24s} {'carbon kg':>10s} "
             f"{'billed c-h':>11s} {'discount c-h':>13s}"]
    for name, r in results.items():
        ledger = bill(r)
        billed = sum(rec.billed_core_hours for rec in ledger.records)
        lines.append(f"{name:>24s} {r.total_carbon_kg:10.1f} "
                     f"{billed:11.0f} {ledger.total_discounts():13.0f}")
    lines.append("")
    lines.append(f"over-allocation waste across jobs: "
                 f"{total_waste:.0f} kWh "
                 f"({total_waste / over.total_energy_kwh * 100:.0f}% of "
                 "cluster energy)")
    report("E12 — job carbon reports + green incentives (§3.4)",
           "\n".join(lines))
