"""E18 (extension) — Over-provisioning under a power bound (paper ref [23]).

§3.2 builds on Arima et al.: "On the Convergence of Malleability and the
HPC PowerStack: Exploiting Dynamism in Over-Provisioned and
Power-Constrained HPC Systems".  The idea: buy *more nodes than the
power budget can feed at full tilt*, then let the PowerStack cap and the
malleability manager resize so the fixed power budget is always spent on
useful work.

Setup: a fixed site power budget that can feed 12 nodes flat out.
Variants: an exactly-provisioned 12-node cluster, an over-provisioned
20-node cluster with caps only, and the over-provisioned cluster with
caps + malleability.

Expected shape: over-provisioning turns the same watts into more
delivered throughput (shorter makespan) because capped-wide beats
uncapped-narrow (sub-linear power/perf curve); malleability adds
robustness when the workload cannot use the extra width.
"""

from benchmarks.conftest import report
from repro import units
from repro.parallel.scenarios import node_model
from repro.powerstack import SiteController, StaticBudgetPolicy
from repro.scheduler import (
    RJMS,
    EasyBackfillPolicy,
    MalleabilityManager,
    MoldableEasyBackfillPolicy,
)
from repro.simulator import (
    Cluster,
    WorkloadConfig,
    WorkloadGenerator,
)

PM = node_model()
#: site budget: 12 nodes flat out (plus nothing for idle headroom)
BUDGET_W = 12 * PM.peak_watts


def make_workload(malleable: bool):
    cfg = WorkloadConfig(n_jobs=80, mean_interarrival_s=1800.0,
                         max_nodes_log2=3,
                         runtime_median_s=3 * units.SECONDS_PER_HOUR,
                         malleable_fraction=1.0 if malleable else 0.0,
                         parallel_fraction=0.995)
    return WorkloadGenerator(cfg, seed=37).generate()


def run_variants():
    out = {}

    def run(name, n_nodes, malleable, policy=None):
        cluster = Cluster(n_nodes, PM, idle_power_off=True)
        rjms = RJMS(cluster, make_workload(malleable),
                    policy or EasyBackfillPolicy())
        rjms.register_manager(SiteController(
            StaticBudgetPolicy(BUDGET_W), cluster))
        if malleable:
            rjms.register_manager(MalleabilityManager(BUDGET_W))
        out[name] = rjms.run()

    run("exact-12-nodes", 12, malleable=False)
    run("overprov-20-caps", 20, malleable=False)
    run("overprov-20-caps+malleable", 20, malleable=True,
        policy=MoldableEasyBackfillPolicy(min_start_fraction=0.25))
    return out


def test_bench_overprovisioning(benchmark):
    results = benchmark.pedantic(run_variants, rounds=1, iterations=1)

    for name, r in results.items():
        assert len(r.completed_jobs) == 80, name
        # the budget holds in every variant, at every accrual step
        assert r.telemetry.aggregate("cluster.power", "max") \
            <= BUDGET_W * 1.01, name

    exact = results["exact-12-nodes"]
    over = results["overprov-20-caps"]
    over_m = results["overprov-20-caps+malleable"]

    # the [23] headline: same watts, more throughput, via width + caps
    assert over.makespan_s < exact.makespan_s
    assert over_m.makespan_s < exact.makespan_s

    lines = [f"site power budget: {BUDGET_W / units.WATTS_PER_KW:.1f} kW "
             "(feeds 12 nodes uncapped)",
             "",
             f"{'variant':>28s} {'makespan h':>11s} {'wait h':>8s} "
             f"{'energy kWh':>11s}"]
    for name, r in results.items():
        lines.append(f"{name:>28s} "
                     f"{r.makespan_s / units.SECONDS_PER_HOUR:11.1f} "
                     f"{r.mean_wait_s / units.SECONDS_PER_HOUR:8.2f} "
                     f"{r.total_energy_kwh:11.0f}")
    speedup = exact.makespan_s / over.makespan_s
    lines.append("")
    lines.append(f"over-provisioning throughput gain at equal power: "
                 f"{(speedup - 1) * 100:.1f}%")
    report("E18 — over-provisioning under a power bound (ref [23])",
           "\n".join(lines))
