"""DCDB-style telemetry: sensors, recording, aggregation.

Section 3.4: "it is necessary to extend operational data analytics
tools, such as DCDB, to be able to quantify and aggregate carbon
emissions data derived from submitted HPC jobs".  DCDB (Netti et al.,
SC'19) is a modular monitoring stack ingesting sensor time series from
facility to application level; this module provides the subset the
carbon accounting layer needs:

* :class:`Sensor` — a named, unit-carrying series;
* :class:`TelemetryDB` — append-only ingestion with windowed queries
  (mean/max/sum/integral) and per-job tagging.

Storage is deliberately simple: per-sensor appended lists converted to
NumPy on query; ingestion is O(1) amortized and queries vectorize.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
    """Append-only sensor store with windowed aggregation.

    Readings must be appended in non-decreasing time order per sensor
    (the simulator clock is monotone); this keeps queries binary-search
    fast without an index.

    A reading holds until the next one.  The RJMS records one per
    sensor per accrued step, at the step's start; ``grid.intensity`` is
    the step's time-weighted mean.
    """

    def __init__(self) -> None:
        self._sensors: Dict[str, Sensor] = {}
        self._times: Dict[str, List[float]] = {}
        self._values: Dict[str, List[float]] = {}

    # -- ingestion -------------------------------------------------------------

    def register(self, sensor: Sensor) -> None:
        """Idempotently register a sensor (unit conflicts raise)."""
        existing = self._sensors.get(sensor.name)
        if existing is not None:
            if existing.unit != sensor.unit:
                raise ValueError(
                    f"sensor {sensor.name!r} is already registered with "
                    f"unit {existing.unit!r}; cannot re-register it with "
                    f"unit {sensor.unit!r}")
            return
        self._sensors[sensor.name] = sensor
        self._times[sensor.name] = []
        self._values[sensor.name] = []

    def record(self, name: str, time: float, value: float) -> None:
        """Append one reading (auto-registers a unitless sensor)."""
        if name not in self._sensors:
            self.register(Sensor(name))
        times = self._times[name]
        if times and time < times[-1] - 1e-9:
            raise ValueError(
                f"out-of-order reading for {name!r}: {time} < {times[-1]}")
        times.append(float(time))
        self._values[name].append(float(value))

    # -- queries -----------------------------------------------------------------

    def sensors(self) -> List[str]:
        return sorted(self._sensors)

    def unit_of(self, name: str) -> str:
        return self._require(name).unit

    def _require(self, name: str) -> Sensor:
        try:
            return self._sensors[name]
        except KeyError:
            raise KeyError(f"unknown sensor {name!r}; known: "
                           f"{', '.join(self.sensors()) or '(none)'}") from None

    def series(self, name: str,
               t0: Optional[float] = None,
               t1: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        """(times, values) arrays for the window ``[t0, t1)``."""
        self._require(name)
        times = self._times[name]
        lo = 0 if t0 is None else bisect_left(times, t0)
        hi = len(times) if t1 is None else bisect_left(times, t1)
        return (np.asarray(times[lo:hi], dtype=np.float64),
                np.asarray(self._values[name][lo:hi], dtype=np.float64))

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

    def integrate(self, name: str,
                  t0: Optional[float] = None,
                  t1: Optional[float] = None) -> float:
        """Zero-order-hold time integral (value-units x seconds).

        For a power sensor in watts this yields joules.  The last sample
        in the window extends to ``t1`` (or to its own timestamp if no
        end given, contributing nothing).
        """
        times, vals = self.series(name, t0, t1)
        if vals.size == 0:
            raise ValueError(f"no {name!r} readings in window")
        end = t1 if t1 is not None else times[-1]
        bounds = np.append(times, end)
        widths = np.clip(np.diff(bounds), 0.0, None)
        return float(np.dot(vals, widths))
