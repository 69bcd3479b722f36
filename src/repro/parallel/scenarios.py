"""The cells of the named sweeps (picklable, module-level).

Each function here is a sweep *cell*: ``cell(**params) -> metrics``.
They must stay module-level so the process pool can pickle them by
reference; :data:`repro.parallel.registry.SWEEPS` pairs each with its
default grid.

Three sweeps cover the three workload classes the executor
serves:

* ``footprint`` — pure-arithmetic model evaluation (the §2.2 embodied
  vs operational trade-off over site intensity and lifetime);
* ``backfill-delay`` — a small seeded scheduling simulation (the E19
  ablation's shape at CLI-friendly scale);
* ``spin`` — a CPU-bound calibration kernel used by the E21 benchmark
  to measure the executor's own scaling.
"""

from __future__ import annotations

from typing import Dict

from repro import units

__all__ = ["footprint_cell", "backfill_delay_cell", "spin_cell"]


def footprint_cell(intensity_g_per_kwh: float,
                   lifetime_years: float) -> Dict[str, float]:
    """Lifetime footprint of a SuperMUC-NG-class system at one site."""
    from repro.core import FootprintModel
    from repro.embodied import SUPERMUC_NG, system_embodied_breakdown

    embodied_kg = system_embodied_breakdown(SUPERMUC_NG)["total"]
    model = FootprintModel(
        embodied_kg,
        SUPERMUC_NG.avg_power_mw * units.WATTS_PER_MW,
        lifetime_years,
        intensity_g_per_kwh)
    r = model.lifetime_report()
    return {
        "total_t": r.total_kg / units.KG_PER_TONNE,
        "embodied_share": r.embodied_share,
    }


def backfill_delay_cell(max_delay_h: float,
                        min_saving: float) -> Dict[str, float]:
    """One cell of the carbon-backfill knob ablation (E19's shape).

    Rebuilds its whole world from fixed seeds, so any cell can run in
    any process and still land on the same numbers.
    """
    from repro.grid import SyntheticProvider
    from repro.scheduler import RJMS, CarbonBackfillPolicy
    from repro.simulator import (
        Cluster,
        ComponentPowerModel,
        NodePowerModel,
        WorkloadConfig,
        WorkloadGenerator,
    )

    pm = NodePowerModel(cpus=(ComponentPowerModel("cpu", 50.0, 240.0),) * 2)
    jobs = WorkloadGenerator(
        WorkloadConfig(n_jobs=60, mean_interarrival_s=4000.0,
                       max_nodes_log2=3,
                       runtime_median_s=2 * units.SECONDS_PER_HOUR,
                       runtime_sigma=0.8),
        seed=3).generate()
    r = RJMS(Cluster(16, pm, idle_power_off=True), jobs,
             CarbonBackfillPolicy(
                 max_delay_s=max_delay_h * units.SECONDS_PER_HOUR,
                 min_saving_fraction=min_saving),
             provider=SyntheticProvider("ES", seed=7)).run()
    return {
        "carbon_kg": r.total_carbon_kg,
        "wait_h": r.mean_wait_s / units.SECONDS_PER_HOUR,
        "completed": float(len(r.completed_jobs)),
    }


def spin_cell(lane: int, reps: int) -> Dict[str, float]:
    """CPU-bound deterministic kernel: ``reps`` logistic-map steps.

    Pure Python arithmetic — no allocation, no I/O — so wall-clock
    scaling of a ``spin`` grid measures the executor, not the cell.
    The trajectory depends only on ``lane``, making every cell's
    checksum unique and order-verifiable.
    """
    if reps < 0:
        raise ValueError(f"reps must be >= 0, got {reps}")
    x = 0.25 + (lane % 97) / 1000.0
    for _ in range(reps):
        x = 3.9990 * x * (1.0 - x)
    return {"checksum": x, "evals": float(reps)}

