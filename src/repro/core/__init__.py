"""Core carbon accounting: scopes, footprint, budgets, metrics.

This package is the paper's conceptual contribution turned into code:

* :mod:`repro.core.scopes` — GHG-protocol Scope 1/2/3 classification (§1);
* :mod:`repro.core.footprint` — total footprint = amortized embodied +
  operational; renewable-share analysis (§2, the 70-75% -> ~50% rule);
* :mod:`repro.core.budget` — carbon budgets and the embodied<->operational
  trade-off of §2.2;
* :mod:`repro.core.metrics` — carbon-efficiency metrics (CDP, CEP, ...) of §2.1.

Operational carbon of a simulated run, the time integral of carbon
intensity x power (§3.1), is charged by the RJMS accrual
(:mod:`repro.scheduler.rjms`) on each exact power step.
"""

from repro.core.scopes import Scope, EmissionSource, EmissionsInventory, classify
from repro.core.footprint import (
    DatacenterProfile,
    FootprintModel,
    FootprintReport,
    blended_intensity,
    embodied_share_curve,
)
from repro.core.budget import (
    CarbonBudget,
    BudgetSplit,
    split_total_budget,
    operational_headroom_watts,
)
from repro.core.pue import (
    FacilityModel,
    PUE_WARM_WATER,
    PUE_AIR_COOLED,
    PUE_GLOBAL_AVERAGE,
)
from repro.core.metrics import (
    cdp,
    cep,
    cadp,
    edp,
    carbon_per_unit_work,
    carbon_efficiency,
)

__all__ = [
    "Scope",
    "EmissionSource",
    "EmissionsInventory",
    "classify",
    "DatacenterProfile",
    "FootprintModel",
    "FootprintReport",
    "blended_intensity",
    "embodied_share_curve",
    "CarbonBudget",
    "BudgetSplit",
    "split_total_budget",
    "operational_headroom_watts",
    "FacilityModel",
    "PUE_WARM_WATER",
    "PUE_AIR_COOLED",
    "PUE_GLOBAL_AVERAGE",
    "cdp",
    "cep",
    "cadp",
    "edp",
    "carbon_per_unit_work",
    "carbon_efficiency",
]
