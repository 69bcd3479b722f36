"""E6 — Carbon-aware processor DSE: optima shift with metric and siting.

Paper claims (§2.1, via ACT) regenerated here:
* "the optimal design point could change depending on the design
  objective metric such as CDP, CEP, and others";
* carbon-aware processors must be designed end-to-end against the grid
  intensity where they will operate: the carbon-optimal node at a hydro
  site differs from the one at a fossil site (for poorly-amortized
  silicon, where embodied carbon dominates);
* fab siting (step 1 of the paper's flow) moves embodied carbon.
"""

from benchmarks.conftest import report
from repro.embodied import enumerate_designs, explore
from repro.embodied.act import FabProcess, logic_die_carbon

WORK = 1e10  # giga-ops
UTIL = 0.01  # poorly-amortized accelerator (the embodied-sensitive case)


def run_dse():
    designs = enumerate_designs()
    sweeps = {ci: explore(designs, WORK, ci, utilization=UTIL)
              for ci in (20.0, 400.0, 1025.0)}
    return sweeps


def test_bench_dse(benchmark):
    sweeps = benchmark(run_dse)

    # metric disagreement at a mid-intensity site
    assert sweeps[400.0].optima_disagree()

    # siting shift on the carbon objective: hydro -> mature node,
    # fossil -> leading edge
    best_low = sweeps[20.0].best("carbon").design
    best_high = sweeps[1025.0].best("carbon").design
    assert best_low.node_nm > best_high.node_nm

    # fab siting: the same die fabbed at the GREEN fab embodies less
    tw = logic_die_carbon(400.0, FabProcess.named(7, "TW"))
    green = logic_die_carbon(400.0, FabProcess.named(7, "GREEN"))
    assert green < 0.7 * tw

    lines = [f"{'site CI':>8s} {'metric':>7s} "
             f"{'winner (node, chiplets, area)':>32s}"]
    for ci, sweep in sweeps.items():
        for metric in ("carbon", "cdp", "cep", "edp"):
            d = sweep.best(metric).design
            lines.append(f"{ci:7.0f}g {metric:>7s}   "
                         f"{d.node_nm:2d}nm x {d.n_chiplets} x "
                         f"{d.chiplet_area_mm2:.0f}mm2")
    lines.append("")
    lines.append(f"7nm 400mm2 die: TW fab {tw:.2f} kg vs GREEN fab "
                 f"{green:.2f} kg embodied")
    report("E6 — carbon-aware processor DSE (§2.1)", "\n".join(lines))
