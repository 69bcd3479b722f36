"""Core-hour accounting: project budgets and charging.

"HPC centers commonly allocate compute budget to projects using units
like core-hours, enabling project members to execute HPC jobs" (§3.4).
:class:`ProjectAccount` is one project's allowance;
:class:`CoreHourLedger` tracks every charge so incentive schemes
(:mod:`repro.accounting.incentives`) can discount green usage and
reports can itemize it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional
from repro import units

__all__ = ["ProjectAccount", "ChargeRecord", "CoreHourLedger"]


@dataclass
class ProjectAccount:
    """A project's core-hour allowance.

    Charging beyond the allowance raises — HPC centers block submission
    on exhausted budgets rather than going negative.
    """

    project: str
    allocated_core_hours: float
    used_core_hours: float = 0.0

    def __post_init__(self) -> None:
        if self.allocated_core_hours < 0:
            raise ValueError("allocation must be non-negative")
        if not 0 <= self.used_core_hours <= self.allocated_core_hours:
            raise ValueError("used must be within [0, allocated]")

    @property
    def remaining_core_hours(self) -> float:
        return self.allocated_core_hours - self.used_core_hours

    def charge(self, core_hours: float) -> None:
        if core_hours < 0:
            raise ValueError("cannot charge negative core-hours")
        if core_hours > self.remaining_core_hours + 1e-9:
            raise ValueError(
                f"project {self.project}: charge {core_hours:.1f} exceeds "
                f"remaining {self.remaining_core_hours:.1f} core-hours")
        self.used_core_hours = min(self.allocated_core_hours,
                                   self.used_core_hours + core_hours)


@dataclass(frozen=True)
class ChargeRecord:
    """One job's charge: raw usage, discount, and what was billed."""

    job_id: int
    project: str
    raw_core_hours: float
    billed_core_hours: float
    green_fraction: float

    def __post_init__(self) -> None:
        if self.raw_core_hours < 0 or self.billed_core_hours < 0:
            raise ValueError("core-hours must be non-negative")
        if self.billed_core_hours > self.raw_core_hours + 1e-9:
            raise ValueError("billed cannot exceed raw usage")
        if not 0.0 <= self.green_fraction <= 1.0:
            raise ValueError("green_fraction must be in [0, 1]")

    @property
    def discount_core_hours(self) -> float:
        return self.raw_core_hours - self.billed_core_hours


class CoreHourLedger:
    """Charge log across projects with per-project accounts."""

    def __init__(self, cores_per_node: int = 48) -> None:
        if cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        self.cores_per_node = int(cores_per_node)
        self.accounts: Dict[str, ProjectAccount] = {}
        self.records: List[ChargeRecord] = []

    def open_project(self, project: str, allocated_core_hours: float) -> ProjectAccount:
        if project in self.accounts:
            raise ValueError(f"project {project!r} already exists")
        acct = ProjectAccount(project, allocated_core_hours)
        self.accounts[project] = acct
        return acct

    def core_hours_of(self, n_nodes: int, duration_s: float) -> float:
        """Raw core-hours of an allocation."""
        if n_nodes < 0 or duration_s < 0:
            raise ValueError("nodes and duration must be non-negative")
        return (n_nodes * self.cores_per_node * duration_s
                / units.SECONDS_PER_HOUR)

    def charge_job(self, job_id: int, project: str,
                   raw_core_hours: float,
                   billed_core_hours: Optional[float] = None,
                   green_fraction: float = 0.0) -> ChargeRecord:
        """Charge a job against its project (billed defaults to raw)."""
        try:
            acct = self.accounts[project]
        except KeyError:
            raise KeyError(f"unknown project {project!r}; open it first") from None
        billed = raw_core_hours if billed_core_hours is None else billed_core_hours
        acct.charge(billed)
        rec = ChargeRecord(job_id, project, raw_core_hours, billed,
                           green_fraction)
        self.records.append(rec)
        return rec

    def project_usage(self, project: str) -> float:
        return sum(r.billed_core_hours for r in self.records
                   if r.project == project)

    def total_discounts(self) -> float:
        """Core-hours given back by incentives across all projects."""
        return sum(r.discount_core_hours for r in self.records)
