"""DCDB-style telemetry: sensors and aggregation.

Section 3.4: "it is necessary to extend operational data analytics
tools, such as DCDB, to be able to quantify and aggregate carbon
emissions data derived from submitted HPC jobs".  DCDB (Netti et al.,
SC'19) is a modular monitoring stack ingesting sensor time series from
facility to application level; this module provides the subset the
carbon accounting layer needs:

* :class:`Sensor` — a named, unit-carrying series;
* :class:`TelemetryDB` — sensor series, built whole in one constructor
  call, with windowed aggregates (mean/max/min/sum/last).

The RJMS builds one from its accrual steps when its telemetry is read.
Series are kept as lists and converted to NumPy on query.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Sensor", "TelemetryDB"]


@dataclass(frozen=True)
class Sensor:
    """Identity of one telemetry stream."""

    name: str
    unit: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sensor needs a name")


class TelemetryDB:
    """Read-only sensor series with windowed aggregation.

    ``series`` gives each sensor once, as ``(sensor, times, values)``.
    Times must be non-decreasing (the simulator clock is monotone); this
    keeps queries binary-search fast without an index.

    A reading holds until the next one.  The RJMS's view holds one per
    sensor per accrued step, at the step's start; ``grid.intensity`` is
    the step's time-weighted mean.
    """

    def __init__(self, series: Iterable[Tuple[Sensor, Sequence[float],
                                              Sequence[float]]]) -> None:
        self._series: Dict[str, Tuple[Sensor, List[float], List[float]]] = {}
        for sensor, times, values in series:
            name = sensor.name
            if name in self._series:
                raise ValueError(f"sensor {name!r} is given twice, with units "
                                 f"{self.unit_of(name)!r} and {sensor.unit!r}")
            if len(times) != len(values):
                raise ValueError(f"sensor {name!r} has {len(times)} times "
                                 f"but {len(values)} values")
            if any(t < before - 1e-9 for before, t in zip(times, times[1:])):
                raise ValueError(f"out-of-order reading for {name!r}")
            self._series[name] = (sensor, [float(t) for t in times],
                                  [float(v) for v in values])

    def sensors(self) -> List[str]:
        return sorted(self._series)

    def unit_of(self, name: str) -> str:
        return self._require(name)[0].unit

    def _require(self, name: str) -> Tuple[Sensor, List[float], List[float]]:
        try:
            return self._series[name]
        except KeyError:
            raise KeyError(f"unknown sensor {name!r}; known: "
                           f"{', '.join(self.sensors()) or '(none)'}") from None

    def series(self, name: str,
               t0: Optional[float] = None,
               t1: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        """(times, values) arrays for the window ``[t0, t1)``."""
        _, times, values = self._require(name)
        lo = 0 if t0 is None else bisect_left(times, t0)
        hi = len(times) if t1 is None else bisect_left(times, t1)
        return (np.asarray(times[lo:hi], dtype=np.float64),
                np.asarray(values[lo:hi], dtype=np.float64))

    def aggregate(self, name: str, how: str,
                  t0: Optional[float] = None,
                  t1: Optional[float] = None) -> float:
        """Windowed aggregate: ``mean``, ``max``, ``min``, ``sum``, ``last``."""
        _, vals = self.series(name, t0, t1)
        if vals.size == 0:
            raise ValueError(f"no {name!r} readings in window")
        ops = {"mean": np.mean, "max": np.max, "min": np.min,
               "sum": np.sum, "last": lambda v: v[-1]}
        try:
            return float(ops[how](vals))
        except KeyError:
            raise ValueError(f"unknown aggregation {how!r}; "
                             f"use one of {sorted(ops)}") from None
