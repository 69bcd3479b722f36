"""System procurement under a total carbon budget (§2.2).

The paper: system architects "will have to assess the embodied carbon
emissions for a variety of hardware devices and decide the system
architecture so that the total embodied carbon footprint does not exceed
the given limit", and "trading-off the embodied and operational carbon
budgets under a total carbon footprint budget will be another
optimization opportunity for system designs".

:func:`optimize_procurement` maximizes delivered performance over a set
of candidate node architectures subject to a *total* (embodied +
lifetime operational) carbon budget; :func:`shift_embodied_to_operational`
then converts whatever embodied allowance the winner left unused into a
sustained power-limit boost and the performance it buys — the §2.2
opportunity, end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import units
from repro.core.budget import operational_headroom_watts

__all__ = [
    "CandidateConfig",
    "ProcurementResult",
    "optimize_procurement",
    "shift_embodied_to_operational",
]

#: Exponent of the power->performance boost curve: raising the power
#: limit by x% yields ~(1+x)^BOOST_EXPONENT more throughput (sub-linear:
#: frequency scaling costs voltage).
BOOST_EXPONENT = 0.5


@dataclass(frozen=True)
class CandidateConfig:
    """One node architecture a procurement could buy.

    Per-node quantities: embodied carbon (kgCO2e), sustained performance
    (TFLOP/s), and average power draw (W).
    """

    name: str
    embodied_kg_per_node: float
    perf_tflops_per_node: float
    power_w_per_node: float
    max_nodes: int = 100_000

    def __post_init__(self) -> None:
        if self.embodied_kg_per_node <= 0:
            raise ValueError("embodied carbon per node must be positive")
        if self.perf_tflops_per_node <= 0:
            raise ValueError("performance per node must be positive")
        if self.power_w_per_node <= 0:
            raise ValueError("power per node must be positive")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")

    def operational_kg_per_node(self, grid_intensity: float,
                                lifetime_years: float) -> float:
        """Lifetime operational carbon of one node (kg)."""
        kwh = (self.power_w_per_node / units.WATTS_PER_KW
               * lifetime_years * units.HOURS_PER_YEAR)
        return kwh * grid_intensity / units.GRAMS_PER_KG

    def total_kg_per_node(self, grid_intensity: float,
                          lifetime_years: float) -> float:
        return self.embodied_kg_per_node + self.operational_kg_per_node(
            grid_intensity, lifetime_years)


@dataclass(frozen=True)
class ProcurementResult:
    """Winning configuration of a carbon-budgeted procurement."""

    config: CandidateConfig
    n_nodes: int
    perf_tflops: float
    embodied_kg: float
    operational_kg: float
    budget_kg: float

    @property
    def total_kg(self) -> float:
        return self.embodied_kg + self.operational_kg

    @property
    def budget_slack_kg(self) -> float:
        """Unspent carbon budget."""
        return self.budget_kg - self.total_kg


def optimize_procurement(candidates: Sequence[CandidateConfig],
                         total_budget_kg: float,
                         grid_intensity: float,
                         lifetime_years: float = 5.0) -> ProcurementResult:
    """Pick the config and node count maximizing performance under budget.

    Node count is the budget divided by per-node total carbon (floor),
    capped by the candidate's availability; the best candidate is the one
    whose fleet delivers the most TFLOP/s.  Site intensity matters: at a
    low-carbon site, power-hungry-but-cheap-embodied designs win more
    nodes; at a high-carbon site, efficient designs do — that shift is
    the E7 bench's headline.
    """
    if not candidates:
        raise ValueError("no candidate configurations")
    if total_budget_kg <= 0:
        raise ValueError("budget must be positive")
    if grid_intensity < 0:
        raise ValueError("grid intensity must be non-negative")
    if lifetime_years <= 0:
        raise ValueError("lifetime must be positive")

    best: ProcurementResult | None = None
    for cand in candidates:
        per_node = cand.total_kg_per_node(grid_intensity, lifetime_years)
        n = min(int(total_budget_kg // per_node), cand.max_nodes)
        if n < 1:
            continue
        result = ProcurementResult(
            config=cand,
            n_nodes=n,
            perf_tflops=n * cand.perf_tflops_per_node,
            embodied_kg=n * cand.embodied_kg_per_node,
            operational_kg=n * cand.operational_kg_per_node(
                grid_intensity, lifetime_years),
            budget_kg=total_budget_kg,
        )
        if best is None or result.perf_tflops > best.perf_tflops:
            best = result
    if best is None:
        raise ValueError(
            "budget too small to afford a single node of any candidate")
    return best


def shift_embodied_to_operational(result: ProcurementResult,
                                  grid_intensity: float,
                                  boost_duration_hours: float) -> dict:
    """Convert budget slack into a temporary power boost (§2.2).

    Returns a dict with the extra watts purchasable for
    ``boost_duration_hours``, the boosted system power, and the estimated
    boosted performance (sub-linear in power).
    """
    if grid_intensity <= 0:
        raise ValueError("grid intensity must be positive")
    slack = max(0.0, result.budget_slack_kg)
    base_power = result.n_nodes * result.config.power_w_per_node
    extra_w = (operational_headroom_watts(slack, grid_intensity,
                                          boost_duration_hours)
               if slack > 0 else 0.0)
    boost_ratio = (base_power + extra_w) / base_power
    boosted_perf = result.perf_tflops * boost_ratio ** BOOST_EXPONENT
    return {
        "slack_kg": slack,
        "extra_watts": extra_w,
        "base_power_watts": base_power,
        "boosted_power_watts": base_power + extra_w,
        "base_perf_tflops": result.perf_tflops,
        "boosted_perf_tflops": boosted_perf,
        "boost_duration_hours": boost_duration_hours,
    }
