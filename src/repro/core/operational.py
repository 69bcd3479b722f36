"""Operational power: the :class:`PowerTrace` container.

Section 3.1: "the operational carbon footprint is the time integral of
carbon intensity multiplied by power consumption".  The simulator
computes that integral exactly, once, as the RJMS accrues each
piecewise-constant power step against the provider's intensity
integral (:mod:`repro.scheduler.rjms`).  :class:`PowerTrace` mirrors
:class:`~repro.grid.intensity.CarbonIntensityTrace` but holds watts; it
is the binned view of a run's power log
(:func:`repro.simulator.cluster.resample_power`) that peak- and
mean-power questions read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import units

__all__ = ["PowerTrace"]


@dataclass(frozen=True)
class PowerTrace:
    """A regularly sampled power series (watts), zero-order hold.

    Sample ``i`` covers ``[start_time + i*step, start_time + (i+1)*step)``.
    Immutable, like the intensity trace, so it can be shared freely.
    """

    values: np.ndarray
    step_seconds: float
    start_time: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("power trace must be a non-empty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("power trace contains non-finite values")
        if np.any(arr < 0):
            raise ValueError("power cannot be negative")
        if self.step_seconds <= 0:
            raise ValueError("step_seconds must be positive")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def times(self) -> np.ndarray:
        """Start times of each sample interval."""
        return self.start_time + np.arange(len(self)) * self.step_seconds

    def energy_kwh(self) -> float:
        """Total energy of the trace in kWh."""
        return float(self.values.sum()) * self.step_seconds \
            / units.SECONDS_PER_HOUR / units.WATTS_PER_KW

    def mean_power(self) -> float:
        """Mean power over the trace (watts)."""
        return float(self.values.mean())

    def peak_power(self) -> float:
        """Peak sampled power (watts)."""
        return float(self.values.max())

    @classmethod
    def constant(cls, power_watts: float, duration_seconds: float,
                 step_seconds: float = units.SECONDS_PER_HOUR,
                 start_time: float = 0.0, label: str = "") -> "PowerTrace":
        """Flat power trace covering at least ``duration_seconds``."""
        n = max(1, int(np.ceil(duration_seconds / step_seconds)))
        return cls(np.full(n, float(power_watts)), step_seconds, start_time, label)

