"""Hierarchical power management — the HPC PowerStack (§3.1).

"First, the site administrator inputs the total system power budget,
and then the system management tool divides and distributes the given
power budget accordingly to the currently running jobs.  The given
power budget is distributed across the allocated nodes for each job,
and then the power budget at each node is split and assigned to the
in-node hardware components ... by setting up their hardware knobs,
typically power caps."

Layers (top to bottom):

* :mod:`repro.powerstack.site` — :class:`SiteController`: closed-loop
  controller owning the *total system power budget*, optionally driven
  by a carbon-aware policy;
* :mod:`repro.powerstack.sysmgr` — :class:`SystemPowerManager`: splits
  the system budget across running jobs (demand-proportional,
  fair-share, or priority-greedy);
* :mod:`repro.powerstack.jobmgr` — :class:`JobPowerManager`: splits a
  job's budget across its nodes and in-node components into cap knobs;
* :mod:`repro.powerstack.knobs` — the cap clamping rule;
* :mod:`repro.powerstack.carbon_scaling` — §3.1's new ingredient: the
  carbon-intensity monitor and the policies that derive the total
  system power budget from it.
"""

from repro.powerstack.knobs import clamp_cap
from repro.powerstack.jobmgr import JobPowerManager, NodeBudget
from repro.powerstack.sysmgr import SystemPowerManager, DistributionMode
from repro.powerstack.site import SiteController
from repro.powerstack.carbon_scaling import (
    PowerBudgetPolicy,
    StaticBudgetPolicy,
    LinearScalingPolicy,
    StepScalingPolicy,
    ForecastScalingPolicy,
)

__all__ = [
    "clamp_cap",
    "JobPowerManager",
    "NodeBudget",
    "SystemPowerManager",
    "DistributionMode",
    "SiteController",
    "PowerBudgetPolicy",
    "StaticBudgetPolicy",
    "LinearScalingPolicy",
    "StepScalingPolicy",
    "ForecastScalingPolicy",
]
