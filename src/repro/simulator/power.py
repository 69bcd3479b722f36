"""Component and node power models, power caps, and DVFS.

The PowerStack (§3.1) acts on hardware knobs — "typically power caps" —
set per in-node component (CPUs, GPUs, DRAM).  This module models those
knobs' effect on both power and performance:

* a component draws ``idle + (peak - idle) * utilization`` watts,
  clamped by its cap;
* capping dynamic power costs performance sub-linearly: cutting dynamic
  power to a fraction ``f`` leaves ``f ** (1/gamma)`` of performance,
  with ``gamma ~ 2.2`` (power scales ~quadratically-plus with frequency
  via DVFS, so the first watts shed are cheap — the whole premise of
  carbon-aware power scaling);
* DVFS operating points provide the discrete (freq, power) alternative
  used by region-based tuning tools (READEX-style).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "POWER_PERF_GAMMA",
    "cap_perf_factor",
    "DVFSOperatingPoint",
    "ComponentPowerModel",
    "NodePowerModel",
]

#: Exponent of the dynamic power vs performance curve (P ~ perf^gamma).
POWER_PERF_GAMMA = 2.2


def cap_perf_factor(power_factor: float, gamma: float = POWER_PERF_GAMMA) -> float:
    """Relative performance when dynamic power is scaled to ``power_factor``.

    ``power_factor`` is the fraction of full dynamic power available
    (1.0 = uncapped). Performance follows ``power_factor ** (1/gamma)``:
    shedding 30% of power costs only ~15% performance at gamma = 2.2.
    """
    if not 0.0 <= power_factor <= 1.0:
        raise ValueError("power_factor must be in [0, 1]")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return power_factor ** (1.0 / gamma)


@dataclass(frozen=True)
class DVFSOperatingPoint:
    """One discrete DVFS state: relative frequency and relative power."""

    freq_ratio: float
    power_ratio: float

    def __post_init__(self) -> None:
        if not 0 < self.freq_ratio <= 1.0:
            raise ValueError("freq_ratio must be in (0, 1]")
        if not 0 < self.power_ratio <= 1.0:
            raise ValueError("power_ratio must be in (0, 1]")


#: A typical DVFS ladder (turbo omitted): derived from the gamma curve.
DEFAULT_DVFS_LADDER: Tuple[DVFSOperatingPoint, ...] = tuple(
    DVFSOperatingPoint(freq_ratio=f, power_ratio=round(f ** POWER_PERF_GAMMA, 4))
    for f in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)
)


@dataclass(frozen=True)
class ComponentPowerModel:
    """Power behaviour of one in-node component (CPU, GPU, or DRAM).

    Parameters
    ----------
    name:
        Component label (appears in telemetry sensor names).
    idle_watts / peak_watts:
        Static floor and full-utilization draw.
    """

    name: str
    idle_watts: float
    peak_watts: float
    dvfs_ladder: Tuple[DVFSOperatingPoint, ...] = DEFAULT_DVFS_LADDER

    def __post_init__(self) -> None:
        if self.idle_watts < 0:
            raise ValueError("idle power must be non-negative")
        if self.peak_watts < self.idle_watts:
            raise ValueError("peak power must be >= idle power")
        if not self.dvfs_ladder:
            raise ValueError("DVFS ladder cannot be empty")

    @property
    def dynamic_range_watts(self) -> float:
        return self.peak_watts - self.idle_watts

    def power(self, utilization: float, power_factor: float = 1.0) -> float:
        """Draw (W) at ``utilization`` with dynamic power scaled by
        ``power_factor`` (the cap knob)."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        if not 0.0 <= power_factor <= 1.0:
            raise ValueError("power_factor must be in [0, 1]")
        return self.idle_watts + self.dynamic_range_watts * utilization * power_factor

    def nearest_dvfs_point(self, freq_ratio: float) -> DVFSOperatingPoint:
        """The ladder point with frequency closest to ``freq_ratio``."""
        if not 0 < freq_ratio <= 1.0:
            raise ValueError("freq_ratio must be in (0, 1]")
        return min(self.dvfs_ladder,
                   key=lambda p: abs(p.freq_ratio - freq_ratio))


@dataclass(frozen=True)
class NodePowerModel:
    """Aggregate power model of one node.

    ``base_watts`` covers fans, VRs, NIC, board — always drawn while the
    node is powered on.  Component models add idle + dynamic draws.
    """

    cpus: Tuple[ComponentPowerModel, ...]
    gpus: Tuple[ComponentPowerModel, ...] = ()
    dram: ComponentPowerModel = ComponentPowerModel("dram", 10.0, 35.0)
    base_watts: float = 60.0

    def __post_init__(self) -> None:
        if not self.cpus:
            raise ValueError("a node needs at least one CPU")
        if self.base_watts < 0:
            raise ValueError("base power must be non-negative")

    # -- bounds -----------------------------------------------------------------
    # Cached on first use: every node's power query reads them.  The
    # cache lives in the instance ``__dict__``, outside the dataclass
    # fields, so equality and hashing ignore it.

    @functools.cached_property
    def idle_watts(self) -> float:
        """Draw of a powered-on idle node."""
        return (self.base_watts
                + sum(c.idle_watts for c in self.cpus)
                + sum(g.idle_watts for g in self.gpus)
                + self.dram.idle_watts)

    @functools.cached_property
    def peak_watts(self) -> float:
        """Draw at full utilization, uncapped."""
        return (self.base_watts
                + sum(c.peak_watts for c in self.cpus)
                + sum(g.peak_watts for g in self.gpus)
                + self.dram.peak_watts)

    @functools.cached_property
    def dynamic_range_watts(self) -> float:
        return self.peak_watts - self.idle_watts

    # -- operating power -----------------------------------------------------

    def power(self, utilization: float, power_factor: float = 1.0) -> float:
        """Node draw (W) with all components at ``utilization`` and the
        same cap ``power_factor`` (the PowerStack's node-level split is
        modeled at the job layer; see :mod:`repro.powerstack.jobmgr`)."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        return self.idle_watts + self.dynamic_range_watts * utilization * power_factor

    def power_factor_for_cap(self, cap_watts: float,
                             utilization: float = 1.0) -> float:
        """The dynamic-power factor that keeps the node at/below ``cap_watts``.

        Returns 1.0 if the cap is above the uncapped draw; raises if the
        cap is below idle power (a cap cannot switch the node off — that
        is an allocation decision, §3.2).
        """
        if cap_watts < self.idle_watts - 1e-9:
            raise ValueError(
                f"cap {cap_watts:.0f} W below idle power "
                f"{self.idle_watts:.0f} W; shrink the allocation instead")
        dyn = self.dynamic_range_watts * utilization
        if dyn <= 0:
            return 1.0
        return min(1.0, max(0.0, (cap_watts - self.idle_watts) / dyn))

    def perf_factor_at_cap(self, cap_watts: float,
                           utilization: float = 1.0) -> float:
        """Relative performance of a job on this node under ``cap_watts``."""
        return cap_perf_factor(self.power_factor_for_cap(cap_watts, utilization))
