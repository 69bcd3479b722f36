"""Green-period incentive accounting (§3.4).

"To encourage users to submit jobs during periods of green energy, HPC
centers can offer incentives by only charging a fraction of the actual
core hours used by the job during that time."

:class:`GreenDiscountPolicy` defines the scheme: core-hours consumed
*inside* green periods are billed at ``green_rate`` (e.g. 0.5 = half
price).  :func:`charge_with_incentive` computes a job's exact billed
amount by intersecting its run intervals with the green periods of the
actual intensity signal — the "automatic incentivized HPC job budget
accounting" the paper wants when combined with carbon-aware scheduling
(§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.grid.green import find_green_periods
from repro.grid.intensity import CarbonIntensityTrace
from repro import units

__all__ = ["GreenDiscountPolicy", "IncentiveResult", "charge_with_incentive"]


@dataclass(frozen=True)
class GreenDiscountPolicy:
    """Billing scheme for green-period usage.

    Parameters
    ----------
    green_rate:
        Fraction of core-hours billed during green periods (0.5 = half
        price; 0 = free green compute).
    threshold_fraction:
        Green-period definition, passed to
        :func:`repro.grid.green.find_green_periods`.
    """

    green_rate: float = 0.5
    threshold_fraction: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 <= self.green_rate <= 1.0:
            raise ValueError("green_rate must be in [0, 1]")
        if self.threshold_fraction <= 0:
            raise ValueError("threshold_fraction must be positive")


@dataclass(frozen=True)
class IncentiveResult:
    """Outcome of incentive billing for one job."""

    raw_core_hours: float
    billed_core_hours: float
    green_core_hours: float
    green_fraction: float

    @property
    def discount_core_hours(self) -> float:
        return self.raw_core_hours - self.billed_core_hours


def charge_with_incentive(
    run_intervals: Sequence[Tuple[float, float]],
    n_nodes: int,
    cores_per_node: int,
    intensity: CarbonIntensityTrace,
    policy: GreenDiscountPolicy,
    reference: float | None = None,
) -> IncentiveResult:
    """Billed core-hours for a job under a green-discount policy.

    Parameters
    ----------
    run_intervals:
        The job's actual execution windows ``[(t0, t1), ...]`` —
        multiple when the job was suspended/resumed (§3.3 synergy).
    n_nodes / cores_per_node:
        Allocation size.
    intensity:
        The *actual* intensity signal covering the intervals.
    reference:
        Green-period reference intensity (default: trace mean).
    """
    if n_nodes < 1 or cores_per_node < 1:
        raise ValueError("allocation must be at least one core")
    for t0, t1 in run_intervals:
        if t1 <= t0:
            raise ValueError(f"invalid run interval [{t0}, {t1})")
    periods = find_green_periods(intensity, policy.threshold_fraction,
                                 reference=reference)
    cores = n_nodes * cores_per_node
    raw_s = sum(t1 - t0 for t0, t1 in run_intervals)
    green_s = sum(p.overlaps(t0, t1)
                  for t0, t1 in run_intervals for p in periods)
    green_s = min(green_s, raw_s)  # guard against numeric overlap drift
    raw_ch = cores * raw_s / units.SECONDS_PER_HOUR
    green_ch = cores * green_s / units.SECONDS_PER_HOUR
    billed = (raw_ch - green_ch) + policy.green_rate * green_ch
    return IncentiveResult(
        raw_core_hours=raw_ch,
        billed_core_hours=billed,
        green_core_hours=green_ch,
        green_fraction=(green_s / raw_s) if raw_s else 0.0,
    )
