#!/usr/bin/env python3
"""Site carbon audit: the §2 workflow for a real system inventory.

Audits SuperMUC-NG end to end:

1. embodied carbon breakdown by component class (the Figure-1 analysis);
2. lifetime footprint at its actual site (LRZ hydro, 20 gCO2/kWh) vs a
   coal-grid counterfactual — the §2 siting observation;
3. GHG-protocol scope classification of the totals;
4. end-of-life options for the storage fleet (§2.3): lifetime
   extension vs reuse vs recycling, quantified;
5. where the system would rank on a Carbon500 list.

Run:  python examples/site_carbon_audit.py
"""

from repro.analysis import render_carbon500, render_fig1
from repro.core import EmissionsInventory, FootprintModel
from repro.core.footprint import COAL_INTENSITY, LRZ_HYDRO_INTENSITY
from repro.embodied import (
    ComponentLifecycle,
    SUPERMUC_NG,
    carbon500_ranking,
    lifetime_extension_savings,
    memory_reuse_scenario,
    system_embodied_breakdown,
)
from repro.embodied.components import DRAM_KG_PER_GB
from repro.grid.zones import EUROPE_JAN2023


def main() -> None:
    system = SUPERMUC_NG
    breakdown = system_embodied_breakdown(system)

    print("=" * 70)
    print(f"Carbon audit: {system.name}")
    print("=" * 70)

    # 1. embodied breakdown
    print(render_fig1([system]))

    # 2. lifetime footprint: actual site vs coal counterfactual
    for label, ci in [("LRZ hydro", LRZ_HYDRO_INTENSITY),
                      ("coal grid", COAL_INTENSITY)]:
        model = FootprintModel(
            embodied_kg=breakdown["total"],
            avg_power_watts=system.avg_power_mw * 1e6,
            lifetime_years=system.lifetime_years,
            grid_intensity_g_per_kwh=ci)
        r = model.lifetime_report()
        print(f"{label:10s}: total {r.total_kg / 1e3:9.0f} t over "
              f"{system.lifetime_years:.0f}y  "
              f"(embodied share {r.embodied_share:5.1%})")

    # 3. scope classification
    inv = EmissionsInventory()
    inv.add("component_manufacturing", breakdown["total"],
            "system hardware")
    lrz = FootprintModel(breakdown["total"], system.avg_power_mw * 1e6,
                         system.lifetime_years, LRZ_HYDRO_INTENSITY)
    inv.add("grid_electricity", lrz.operational_kg(), "5y grid energy")
    inv.add("backup_generator", 0.002 * lrz.operational_kg(),
            "diesel tests")
    print()
    print(inv.summary())

    # 4. end-of-life options (§2.3)
    print()
    print("End-of-life options at decommissioning:")
    ext = lifetime_extension_savings(breakdown["total"],
                                     system.lifetime_years, 1.0)
    print(f"  extend life +1y : {ext / 1e3:8.1f} t/yr amortized embodied "
          "avoided")
    dram = memory_reuse_scenario(system.dram_pb, DRAM_KG_PER_GB["DDR4"])
    print(f"  reuse DRAM [38] : {dram / 1e3:8.1f} t avoided "
          "(DDR4 pooled into new servers)")
    storage = ComponentLifecycle("hdd", count=1,
                                 embodied_kg_per_unit=breakdown["storage"])
    print(f"  reuse storage   : {storage.reuse_fleet_savings() / 1e3:8.1f} t "
          f"vs recycling {storage.recycle_fleet_savings() / 1e3:.2f} t "
          f"({storage.reuse_fleet_savings() / storage.recycle_fleet_savings():.0f}x)")

    # 5. Carbon500 position
    print()
    zi = {z: p.mean_intensity_g_per_kwh for z, p in EUROPE_JAN2023.items()}
    print(render_carbon500(carbon500_ranking(zone_intensities=zi)))


if __name__ == "__main__":
    main()
