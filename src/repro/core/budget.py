"""Carbon budgets and the embodied<->operational trade-off (§2.2).

The paper proposes treating a *total carbon footprint budget* as a
first-class procurement constraint, split into an embodied part (spent
at purchase time) and an operational part (spent over the lifetime):

    "If this embodied carbon budget is not fully used, the remaining
    part can be shifted to the operational carbon budget in order to
    boost the system performance by raising the system power limit for
    a certain amount of time."

:class:`CarbonBudget` tracks spending against a total;
:func:`split_total_budget` produces the initial embodied/operational
split; :func:`operational_headroom_watts` converts leftover embodied
budget into extra sustained power — the quantitative core of bench E7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units

__all__ = [
    "CarbonBudget",
    "BudgetSplit",
    "split_total_budget",
    "operational_headroom_watts",
]


@dataclass
class CarbonBudget:
    """A carbon allowance with spend tracking (kgCO2e).

    ``spend`` raises when the budget would go negative — budgets are
    constraints, not suggestions; callers that want soft behaviour check
    :attr:`remaining_kg` first.
    """

    total_kg: float
    spent_kg: float = 0.0

    def __post_init__(self) -> None:
        if self.total_kg < 0:
            raise ValueError("budget must be non-negative")
        if self.spent_kg < 0 or self.spent_kg > self.total_kg:
            raise ValueError("spent must be within [0, total]")

    @property
    def remaining_kg(self) -> float:
        return self.total_kg - self.spent_kg

    @property
    def utilization(self) -> float:
        """Fraction spent (0 for an untouched budget)."""
        return self.spent_kg / self.total_kg if self.total_kg else 0.0

    def spend(self, kg: float) -> None:
        """Consume ``kg`` from the budget.

        Raises
        ------
        ValueError
            If ``kg`` is negative or exceeds the remaining allowance.
        """
        if kg < 0:
            raise ValueError("cannot spend a negative amount")
        if kg > self.remaining_kg + 1e-9:
            raise ValueError(
                f"overspend: {kg:.1f} kg requested, {self.remaining_kg:.1f} kg left")
        self.spent_kg = min(self.total_kg, self.spent_kg + kg)

    def transfer_to(self, other: "CarbonBudget", kg: float) -> None:
        """Move unspent allowance into another budget (the §2.2 shift)."""
        if kg < 0:
            raise ValueError("cannot transfer a negative amount")
        if kg > self.remaining_kg + 1e-9:
            raise ValueError(
                f"cannot transfer {kg:.1f} kg; only {self.remaining_kg:.1f} kg unspent")
        self.total_kg -= kg
        other.total_kg += kg


@dataclass(frozen=True)
class BudgetSplit:
    """An embodied/operational split of a total carbon budget."""

    embodied: CarbonBudget
    operational: CarbonBudget

    @property
    def total_kg(self) -> float:
        return self.embodied.total_kg + self.operational.total_kg


def split_total_budget(total_kg: float, embodied_fraction: float) -> BudgetSplit:
    """Split a total carbon budget into embodied and operational parts."""
    if total_kg < 0:
        raise ValueError("budget must be non-negative")
    if not 0.0 <= embodied_fraction <= 1.0:
        raise ValueError("embodied_fraction must be in [0, 1]")
    e = total_kg * embodied_fraction
    return BudgetSplit(CarbonBudget(e), CarbonBudget(total_kg - e))


def operational_headroom_watts(leftover_embodied_kg: float,
                               grid_intensity_g_per_kwh: float,
                               boost_duration_hours: float) -> float:
    """Extra sustained power purchasable with leftover embodied budget.

    Shifting ``leftover_embodied_kg`` into the operational budget allows
    raising the system power limit by the returned number of watts for
    ``boost_duration_hours`` at the given grid intensity:

        extra_kWh = leftover_kg * 1000 / CI   ->   extra_W = extra_kWh / h * 1000

    This is the §2.2 "boost the system performance by raising the system
    power limit" opportunity, quantified.
    """
    if leftover_embodied_kg < 0:
        raise ValueError("leftover budget must be non-negative")
    if grid_intensity_g_per_kwh <= 0:
        raise ValueError("grid intensity must be positive")
    if boost_duration_hours <= 0:
        raise ValueError("boost duration must be positive")
    extra_kwh = leftover_embodied_kg * units.GRAMS_PER_KG / grid_intensity_g_per_kwh
    return extra_kwh / boost_duration_hours * units.WATTS_PER_KW
