"""Carbon-aware processor design-space exploration (§2.1).

The paper describes end-to-end carbon-aware processor design: (1) assess
the grid intensity where the part will operate, (2) choose the chiplet
combination and fabs, (3) explore each chiplet's design space — and
notes (citing ACT) that the optimal design point changes with the
objective metric (CDP vs CEP vs others).

This module makes that concrete.  A :class:`DesignPoint` is a chiplet
configuration (count x area x node x fab + packaging); evaluating it
against a reference workload yields delay, energy, embodied carbon, the
operational carbon of executing the workload at the target site, and the
ACT-style objective metrics.  :func:`explore` sweeps a design grid and
reports the optimum under each metric — the E6 bench shows the optima
*disagree*, and *move* when the site's grid intensity changes, which is
the paper's point.

Performance/energy scaling across nodes uses standard technology-scaling
factors (throughput density up, energy per op down as features shrink);
they are relative, which is all the optimum-shift result needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro import units
from repro.core.metrics import cadp, cdp, cep, edp
from repro.embodied.components import ChipletSpec
from repro.embodied.act import logic_die_carbon
from repro.embodied.packaging import PackageSpec, packaging_carbon

__all__ = [
    "NODE_PERF_DENSITY",
    "NODE_ENERGY_PER_OP",
    "DesignPoint",
    "DesignEvaluation",
    "DSEResult",
    "enumerate_designs",
    "evaluate_design",
    "explore",
]

#: Relative compute throughput per mm2 by node (28nm == 1.0).  Density
#: scaling has slowed at the EUV nodes (SRAM and analog barely shrink),
#: so the perf-density curve flattens where the wafer-carbon curve
#: steepens — the §2.1 design-space tension.
NODE_PERF_DENSITY: Dict[int, float] = {
    28: 1.00, 20: 1.35, 16: 1.75, 14: 1.95, 12: 2.20,
    10: 2.80, 7: 3.60, 5: 4.20, 3: 4.80,
}

#: Relative energy per operation by node (28nm == 1.0; smaller is better).
NODE_ENERGY_PER_OP: Dict[int, float] = {
    28: 1.00, 20: 0.78, 16: 0.64, 14: 0.58, 12: 0.52,
    10: 0.44, 7: 0.36, 5: 0.32, 3: 0.28,
}

#: Absolute anchors turning relative scaling into physical units:
#: a 28nm design delivers GOPS_PER_MM2_28NM giga-ops/s per mm2 and spends
#: PJ_PER_OP_28NM picojoules per op.  Anchored on the A100: 826mm2 at
#: 7nm delivering ~20 TFLOP/s sustained at ~400 W (~24 GFLOP/s/mm2,
#: ~20 pJ/FLOP).
GOPS_PER_MM2_28NM = 6.7
PJ_PER_OP_28NM = 60.0


@dataclass(frozen=True)
class DesignPoint:
    """One processor configuration in the design space."""

    n_chiplets: int
    chiplet_area_mm2: float
    node_nm: int
    fab_location: str = "TW"

    def __post_init__(self) -> None:
        if self.n_chiplets < 1:
            raise ValueError("need at least one chiplet")
        if self.chiplet_area_mm2 <= 0:
            raise ValueError("chiplet area must be positive")
        if self.node_nm not in NODE_PERF_DENSITY:
            raise ValueError(f"no scaling data for node {self.node_nm}nm")

    @property
    def total_area_mm2(self) -> float:
        return self.n_chiplets * self.chiplet_area_mm2

    @property
    def packaging(self) -> PackageSpec:
        if self.n_chiplets == 1:
            return PackageSpec(technology="monolithic")
        # Multi-chiplet HPC parts integrate on a 2.5D interposer sized
        # ~15% larger than the silicon it carries.
        return PackageSpec(technology="interposer_2_5d",
                           interposer_area_mm2=1.15 * self.total_area_mm2,
                           interposer_fab_location=self.fab_location)

    def embodied_kg(self) -> float:
        """Embodied carbon of one good package (kgCO2e)."""
        chip = ChipletSpec(self.chiplet_area_mm2, self.node_nm,
                           self.fab_location)
        dies = logic_die_carbon(chip.area_mm2, chip.fab) * self.n_chiplets
        return dies + packaging_carbon(self.packaging, self.n_chiplets)

    def throughput_gops(self) -> float:
        """Sustained throughput (giga-ops/s) of the full package."""
        return (self.total_area_mm2 * GOPS_PER_MM2_28NM
                * NODE_PERF_DENSITY[self.node_nm])

    def power_watts(self) -> float:
        """Power at full throughput: ops/s x energy/op."""
        ops_per_s = self.throughput_gops() * 1e9
        joules_per_op = PJ_PER_OP_28NM * 1e-12 * NODE_ENERGY_PER_OP[self.node_nm]
        return ops_per_s * joules_per_op


@dataclass(frozen=True)
class DesignEvaluation:
    """A design point with its workload-level outcomes and metrics."""

    design: DesignPoint
    delay_s: float
    energy_kwh: float
    embodied_kg: float
    operational_kg: float
    cdp: float
    cep: float
    cadp: float
    edp: float

    @property
    def total_carbon_kg(self) -> float:
        return self.embodied_kg + self.operational_kg


@dataclass(frozen=True)
class DSEResult:
    """Outcome of a design-space sweep: all evaluations + per-metric winners."""

    evaluations: tuple
    grid_intensity_g_per_kwh: float

    def best(self, metric: str) -> DesignEvaluation:
        """Winning evaluation under ``metric``.

        Metrics: ``carbon`` (total carbon of the workload), ``cdp``,
        ``cep``, ``cadp``, ``edp``.
        """
        if metric == "carbon":
            return min(self.evaluations, key=lambda e: e.total_carbon_kg)
        if metric not in ("cdp", "cep", "cadp", "edp"):
            raise ValueError(f"unknown metric {metric!r}")
        return min(self.evaluations, key=lambda e: getattr(e, metric))

    def optima_disagree(self) -> bool:
        """Whether at least two metrics pick different design points."""
        winners = {m: self.best(m).design for m in ("cdp", "cep", "cadp", "edp")}
        return len({(d.n_chiplets, d.chiplet_area_mm2, d.node_nm)
                    for d in winners.values()}) > 1


def evaluate_design(design: DesignPoint,
                    workload_gops: float,
                    grid_intensity: float,
                    service_life_years: float = 5.0,
                    utilization: float = 0.85) -> DesignEvaluation:
    """Evaluate one design against a reference workload.

    Embodied carbon is charged *proportionally*: the workload occupies
    ``delay / (service_life * utilization)`` of the part's useful life,
    so that slower parts amortize over fewer total ops — the mechanism
    that couples embodied carbon into the delay-sensitive metrics.

    Parameters
    ----------
    workload_gops:
        Total work in giga-operations.
    grid_intensity:
        Site grid intensity (gCO2e/kWh) — ACT step (1).
    """
    if workload_gops <= 0:
        raise ValueError("workload must be positive")
    if grid_intensity < 0:
        raise ValueError("grid intensity must be non-negative")
    if not 0 < utilization <= 1:
        raise ValueError("utilization must be in (0, 1]")
    delay = workload_gops / design.throughput_gops()
    energy_kwh = design.power_watts() * delay / units.SECONDS_PER_HOUR \
        / units.WATTS_PER_KW
    life_s = service_life_years * units.SECONDS_PER_YEAR * utilization
    embodied = design.embodied_kg() * min(1.0, delay / life_s)
    operational = energy_kwh * grid_intensity / units.GRAMS_PER_KG
    carbon = embodied + operational
    return DesignEvaluation(
        design=design,
        delay_s=delay,
        energy_kwh=energy_kwh,
        embodied_kg=embodied,
        operational_kg=operational,
        cdp=float(cdp(carbon, delay)),
        cep=float(cep(carbon, energy_kwh)),
        cadp=float(cadp(carbon, design.total_area_mm2, delay)),
        edp=float(edp(energy_kwh, delay)),
    )


def enumerate_designs(
    nodes: Sequence[int] = (14, 10, 7, 5),
    chiplet_counts: Sequence[int] = (1, 2, 4, 8),
    chiplet_areas: Sequence[float] = (100.0, 200.0, 400.0, 800.0),
    fab_location: str = "TW",
    max_total_area_mm2: float = 1700.0,
) -> List[DesignPoint]:
    """The default design grid, pruned to manufacturable total areas."""
    out: List[DesignPoint] = []
    for node in nodes:
        for n in chiplet_counts:
            for a in chiplet_areas:
                if n * a <= max_total_area_mm2 and (n == 1 or a <= 450.0):
                    out.append(DesignPoint(n, a, node, fab_location))
    if not out:
        raise ValueError("design grid is empty after pruning")
    return out


def explore(designs: Iterable[DesignPoint],
            workload_gops: float,
            grid_intensity: float,
            service_life_years: float = 5.0,
            utilization: float = 0.85) -> DSEResult:
    """Evaluate every design and return the sweep result."""
    evals = tuple(
        evaluate_design(d, workload_gops, grid_intensity,
                        service_life_years, utilization)
        for d in designs)
    if not evals:
        raise ValueError("no designs to explore")
    return DSEResult(evaluations=evals,
                     grid_intensity_g_per_kwh=grid_intensity)
