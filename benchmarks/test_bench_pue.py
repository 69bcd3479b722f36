"""E15 (extension) — Facility PUE and heat reuse on operational carbon.

The paper's operational analysis (§3) is at IT level; this bench adds
the facility layer: the same simulated cluster run costs different
operational carbon under warm-water cooling (PUE 1.08, SuperMUC-NG
class), air cooling (1.5), and the global average (1.55) — and heat
reuse (the LRZ district-heating story) claws part of it back.

Expected shape: facility overhead scales operational carbon by the PUE;
warm-water + heat reuse beats air cooling by ~a third — the same order
as the §2/§3 siting and scheduling effects, so facility design belongs
in the same conversation.
"""

import pytest

from benchmarks.conftest import report
from repro import units
from repro.core import (
    FacilityModel,
    PUE_AIR_COOLED,
    PUE_GLOBAL_AVERAGE,
    PUE_WARM_WATER,
)
from repro.grid import SyntheticProvider
from repro.parallel.scenarios import node_model
from repro.scheduler import RJMS, EasyBackfillPolicy
from repro.simulator import (
    Cluster,
    WorkloadConfig,
    WorkloadGenerator,
)

PM = node_model()

FACILITIES = {
    "warm-water": FacilityModel(pue=PUE_WARM_WATER),
    "warm-water+heat-reuse": FacilityModel(pue=PUE_WARM_WATER,
                                           heat_reuse_fraction=0.3),
    "air-cooled": FacilityModel(pue=PUE_AIR_COOLED),
    "global-average": FacilityModel(pue=PUE_GLOBAL_AVERAGE),
}


def run_and_scale():
    cfg = WorkloadConfig(n_jobs=60, mean_interarrival_s=2500.0,
                         max_nodes_log2=3,
                         runtime_median_s=2 * units.SECONDS_PER_HOUR)
    jobs = WorkloadGenerator(cfg, seed=15).generate()
    provider = SyntheticProvider("DE", seed=2)
    result = RJMS(Cluster(16, PM), jobs, EasyBackfillPolicy(),
                  provider=provider).run()
    it_kwh = result.total_energy_kwh
    mean_ci = result.total_carbon_kg * units.GRAMS_PER_KG / it_kwh
    return result, {
        name: fac.facility_carbon_kg(it_kwh, mean_ci)
        for name, fac in FACILITIES.items()
    }


def test_bench_pue(benchmark):
    result, carbons = benchmark.pedantic(run_and_scale, rounds=1,
                                         iterations=1)

    it_carbon = result.total_carbon_kg
    # facility carbon scales with the effective multiplier
    assert carbons["warm-water"] == pytest.approx(
        it_carbon * PUE_WARM_WATER, rel=1e-9)
    assert carbons["air-cooled"] > 1.3 * carbons["warm-water"]
    # heat reuse credit lands below even the IT-only figure here
    assert carbons["warm-water+heat-reuse"] < carbons["warm-water"]

    lines = [f"IT-level carbon of the run: {it_carbon:.1f} kg",
             "",
             f"{'facility':>22s} {'PUE_eff':>8s} {'carbon kg':>10s} "
             f"{'vs warm-water':>14s}"]
    ref = carbons["warm-water"]
    for name, kg in carbons.items():
        fac = FACILITIES[name]
        lines.append(f"{name:>22s} {fac.effective_multiplier:8.2f} "
                     f"{kg:10.1f} {(kg / ref - 1) * 100:+13.1f}%")
    report("E15 — facility PUE / heat reuse (extension)",
           "\n".join(lines))
