"""NumPy-backed carbon-intensity time series.

:class:`CarbonIntensityTrace` is the fundamental data structure of the
operational-carbon half of the library.  It holds a regularly sampled
series of grid carbon intensity (gCO2e per kWh) and supports the
operations every downstream consumer needs:

* point lookup at arbitrary simulation times (zero-order hold, matching
  how grid data providers publish stepwise intensity signals);
* integration against power traces (operational carbon is the time
  integral of intensity x power, §3.1 of the paper), O(1) per interval
  from a cumulative integral cached on first use;
* daily averaging (Figure 2 plots *averaged daily* intensities);
* resampling, slicing, and summary statistics.

The class is deliberately immutable: values are stored in a read-only
NumPy array so traces can be shared between scheduler, PowerStack and
accounting components without defensive copies (a guide-recommended
"views, not copies" idiom).  The cached cumulative integral is derived
from the values, so it takes no part in equality or ``repr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro import units

__all__ = ["CarbonIntensityTrace"]


@dataclass(frozen=True, eq=False)
class CarbonIntensityTrace:
    """A regularly sampled carbon-intensity series.

    Parameters
    ----------
    values:
        Intensity samples in gCO2e/kWh. Must be non-negative and finite.
    step_seconds:
        Sampling period. Grid providers typically publish hourly data
        (``3600``); the simulator often uses finer steps.
    start_time:
        Simulation time (seconds) of the first sample. Sample ``i`` covers
        the half-open interval ``[start_time + i*step, start_time + (i+1)*step)``
        — i.e. the trace is a zero-order-hold (stepwise) signal, matching
        how intensity forecasts/actuals are published.
    zone:
        Optional zone identifier (e.g. ``"DE"``) for provenance.
    """

    values: np.ndarray
    step_seconds: float = units.SECONDS_PER_HOUR
    start_time: float = 0.0
    zone: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"trace values must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("trace must contain at least one sample")
        if not np.isfinite(arr).all():
            raise ValueError("trace contains non-finite values")
        if (arr < 0).any():
            raise ValueError("carbon intensity cannot be negative")
        if self.step_seconds <= 0:
            raise ValueError(f"step_seconds must be positive, got {self.step_seconds}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    # -- basic protocol ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Same samples, step, start and zone; the caches are ignored."""
        if self is other:
            return True
        if not isinstance(other, CarbonIntensityTrace):
            return NotImplemented
        return (self.step_seconds == other.step_seconds
                and self.start_time == other.start_time
                and self.zone == other.zone
                and np.array_equal(self.values, other.values))

    #: traces hold an array, so they are deliberately unhashable
    __hash__ = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self):
        return iter(self.values)

    @property
    def duration(self) -> float:
        """Total covered duration in seconds."""
        return float(len(self) * self.step_seconds)

    @property
    def end_time(self) -> float:
        """Simulation time one step past the last sample."""
        return self.start_time + self.duration

    @property
    def times(self) -> np.ndarray:
        """Start times (seconds) of each sample interval."""
        return self.start_time + np.arange(len(self)) * self.step_seconds

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(
        cls,
        intensity: float,
        duration_seconds: float,
        step_seconds: float = units.SECONDS_PER_HOUR,
        start_time: float = 0.0,
        zone: str = "",
    ) -> "CarbonIntensityTrace":
        """A flat trace, e.g. LRZ's contractual hydro intensity of 20 g/kWh."""
        n = max(1, int(np.ceil(duration_seconds / step_seconds)))
        return cls(np.full(n, float(intensity)), step_seconds, start_time, zone)

    @classmethod
    def from_hourly(
        cls, hourly: Iterable[float], start_time: float = 0.0, zone: str = ""
    ) -> "CarbonIntensityTrace":
        """Build from hourly samples (the provider convention)."""
        return cls(np.asarray(list(hourly), dtype=np.float64),
                   units.SECONDS_PER_HOUR, start_time, zone)

    # -- lookup ---------------------------------------------------------------

    def _index_at(self, t):
        """Sample index in effect at ``t``, clamped to the trace; a Python
        int for a scalar ``t``, an int64 array otherwise."""
        if isinstance(t, (int, float)):
            return min(max(math.floor((t - self.start_time)
                                      / self.step_seconds), 0), len(self) - 1)
        idx = np.floor((np.asarray(t, dtype=np.float64) - self.start_time)
                       / self.step_seconds).astype(np.int64)
        return np.clip(idx, 0, len(self) - 1)

    def at(self, t):
        """Intensity (g/kWh) in effect at simulation time ``t``.

        Zero-order hold; times outside the covered range clamp to the
        first/last sample (a provider keeps reporting its last known value).
        Accepts scalars or arrays.
        """
        out = self.values[self._index_at(t)]
        if np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0):
            return float(out)
        return out

    def sample_range(self, t0: float, t1: float) -> tuple[int, int]:
        """``(i0, i1)``: the samples ``values[i0:i1]`` that
        :meth:`window` returns for ``[t0, t1)``.

        They start at the bin holding ``t0`` (clamped to the trace) and
        end at the first sample boundary at or after ``t1``, always at
        least one sample.
        """
        if t1 <= t0:
            raise ValueError(f"empty window [{t0}, {t1})")
        n = len(self)
        i0 = min(max(math.floor((t0 - self.start_time) / self.step_seconds),
                     0), n - 1)
        i1 = min(max(math.ceil((t1 - self.start_time) / self.step_seconds),
                     i0 + 1), n)
        return i0, i1

    def window(self, t0: float, t1: float) -> "CarbonIntensityTrace":
        """Sub-trace covering ``[t0, t1)``; sample boundaries are preserved.

        It holds the samples :meth:`sample_range` names.
        """
        i0, i1 = self.sample_range(t0, t1)
        return CarbonIntensityTrace(
            self.values[i0:i1], self.step_seconds,
            self.start_time + i0 * self.step_seconds, self.zone)

    # -- integration ----------------------------------------------------------

    def _cumulative(self):
        """``(hi, lo)``: ``hi[k] + lo[k]`` is ``sum(values[:k + 1] * step)``
        to about twice float64 precision.

        Built on the first integral and cached on the instance, so traces
        that are never integrated pay nothing.  ``hi`` is the running sum;
        ``lo`` accumulates the exact rounding error of each of its
        additions (TwoSum), so a difference of two prefixes keeps full
        precision even deep into a long trace.
        """
        cum = self.__dict__.get("_cum")
        if cum is None:
            terms = self.values * self.step_seconds
            hi = np.cumsum(terms)
            lo = np.zeros_like(hi)
            carried = hi[1:] - hi[:-1]
            np.cumsum((hi[:-1] - (hi[1:] - carried)) + (terms[1:] - carried),
                      out=lo[1:])
            cum = (hi, lo)
            object.__setattr__(self, "_cum", cum)
        return cum

    def mean_over(self, t0, t1):
        """Time-weighted mean intensity over ``[t0, t1)`` (g/kWh).

        Partial overlap with the first/last sample interval is weighted
        exactly; this is what makes carbon accounting of jobs that start
        and end mid-hour correct.  Accepts scalars or NumPy arrays of bounds.
        """
        if isinstance(t0, np.ndarray) or isinstance(t1, np.ndarray):
            t0 = np.asarray(t0, dtype=np.float64)
            t1 = np.asarray(t1, dtype=np.float64)
            if (t1 <= t0).any():
                raise ValueError("empty interval in array bounds")
        elif t1 <= t0:
            raise ValueError(f"empty interval [{t0}, {t1})")
        return self.integrate_intensity(t0, t1) / (t1 - t0)

    def integrate_intensity(self, t0, t1):
        """``∫ CI(t) dt`` over ``[t0, t1)`` in (g/kWh)·s, with exact partial bins.

        O(1) per interval from the cached cumulative integral.  Outside the
        trace the first/last sample holds; ``t1 <= t0`` integrates to 0.
        Accepts scalars or NumPy arrays of bounds (broadcast like NumPy);
        both give the same bits for the same bounds.
        """
        if isinstance(t0, np.ndarray) or isinstance(t1, np.ndarray):
            return self._integrate_array(np.asarray(t0, dtype=np.float64),
                                         np.asarray(t1, dtype=np.float64))
        if t1 <= t0:
            return 0.0
        vals, start, step = self.values, self.start_time, self.step_seconds
        last = vals.size - 1
        end = start + vals.size * step
        total = 0.0
        if t0 < start:  # before the trace: the first sample holds
            total += (min(t1, start) - t0) * vals.item(0)
        if t1 > end:  # after it: the last sample holds
            total += (t1 - max(t0, end)) * vals.item(last)
        a = min(max(t0, start), end)
        b = min(max(t1, start), end)
        if b <= a:
            return total
        i = min(int((a - start) / step), last)  # a >= start: int() floors
        j = min(int((b - start) / step), last)
        if i == j:
            return total + (b - a) * vals.item(i)
        hi, lo = self._cumulative()
        # head partial bin, full bins i+1..j-1, tail partial bin
        return total + ((start + i * step + step - a) * vals.item(i)
                        + (hi.item(j - 1) - hi.item(i))
                        + (lo.item(j - 1) - lo.item(i))
                        + (b - (start + j * step)) * vals.item(j))

    def _integrate_array(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """:meth:`integrate_intensity` over arrays of bounds, same arithmetic.

        When every bound lies in ``[start, end]`` with ``t1 >= t0``, the
        clamps are the identity and each out-of-trace term is ``+0.0``
        times an end sample, so that path skips the array work for them.
        """
        vals, start, step = self.values, self.start_time, self.step_seconds
        last = vals.size - 1
        end = start + vals.size * step
        hi, lo = self._cumulative()
        if t0.size and t1.size and t0.min() >= start and t1.max() <= end \
                and (t1 >= t0).all():
            a, b = t0, t1
            total = 0.0 * vals.item(0) + 0.0 * vals.item(last)
        else:
            total = (np.maximum(np.minimum(t1, start) - t0, 0.0) * vals[0]
                     + np.maximum(t1 - np.maximum(t0, end), 0.0) * vals[last])
            a = np.minimum(np.maximum(t0, start), end)
            b = np.maximum(np.minimum(np.maximum(t1, start), end), a)
        i = np.minimum(((a - start) / step).astype(np.int64), last)
        j = np.minimum(((b - start) / step).astype(np.int64), last)
        jm1 = j - 1
        vi = vals[i]
        inner = np.where(
            i == j,
            (b - a) * vi,
            (start + i * step + step - a) * vi
            + (hi[jm1] - hi[i]) + (lo[jm1] - lo[i])
            + (b - (start + j * step)) * vals[j])
        return total + inner

    def carbon_for_power(self, power_watts: float, t0: float, t1: float) -> float:
        """Operational carbon (gCO2e) of a constant ``power_watts`` load over ``[t0, t1)``."""
        kw = power_watts / units.WATTS_PER_KW
        return kw * self.integrate_intensity(t0, t1) / units.SECONDS_PER_HOUR

    # -- statistics ------------------------------------------------------------

    def mean(self) -> float:
        """Arithmetic mean of the samples (g/kWh)."""
        return float(self.values.mean())

    def std(self, ddof: int = 0) -> float:
        """Standard deviation of the samples (g/kWh)."""
        return float(self.values.std(ddof=ddof))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def percentile(self, q):
        """q-th percentile of the samples (g/kWh): a float for one ``q``,
        a tuple of floats for a sequence of them, all from one sort.

        The rule is numpy's default ``"linear"`` one, step for step, so
        the result equals ``np.percentile(values, q)``: the virtual
        index is ``(n - 1) * (q / 100)``; its neighbours are the sorted
        samples at its floor and the next index, both the last sample
        when it is ``>= n - 1``; and the two are blended by numpy's
        ``_lerp`` with weight ``g`` (the index minus the lower
        neighbour's): ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)``
        when ``g >= 0.5``.
        """
        many = np.ndim(q) > 0
        qs = [float(x) for x in q] if many else [float(q)]
        if not all(0.0 <= x <= 100.0 for x in qs):
            raise ValueError("Percentiles must be in the range [0, 100]")
        ranked = np.sort(self.values)
        last = ranked.size - 1
        out = []
        for x in qs:
            virtual = last * (x / 100.0)
            # numpy's lower index is -1 (the last sample) past the end
            lower = -1 if virtual >= last else int(virtual)
            a = ranked.item(lower)
            b = ranked.item(-1 if lower == -1 else lower + 1)
            g = virtual - lower
            d = b - a
            out.append(b - d * (1 - g) if g >= 0.5 else a + d * g)
        return tuple(out) if many else out[0]

    # -- transforms --------------------------------------------------------------

    def daily_means(self) -> np.ndarray:
        """Mean intensity per 24h block — the series plotted in Figure 2.

        A trailing partial day (fewer samples than a full day) is averaged
        over the samples it has.
        """
        per_day = int(round(units.SECONDS_PER_DAY / self.step_seconds))
        if per_day < 1:
            raise ValueError("step too coarse for daily averaging")
        n_full = len(self) // per_day
        out = []
        if n_full:
            out.append(self.values[: n_full * per_day]
                       .reshape(n_full, per_day).mean(axis=1))
        rem = self.values[n_full * per_day:]
        if rem.size:
            out.append(np.array([rem.mean()]))
        return np.concatenate(out) if out else np.empty(0)

    def resample(self, step_seconds: float) -> "CarbonIntensityTrace":
        """Return a trace resampled to ``step_seconds``.

        Upsampling repeats samples (zero-order hold); downsampling averages
        whole groups (energy-weighted mean is the sample mean for a ZOH
        signal with uniform bins).
        """
        if step_seconds <= 0:
            raise ValueError("step_seconds must be positive")
        if step_seconds == self.step_seconds:
            return self
        ratio = self.step_seconds / step_seconds
        if ratio >= 1:  # upsample
            rep = int(round(ratio))
            if abs(rep - ratio) > 1e-9:
                raise ValueError("upsampling requires an integer step ratio")
            return CarbonIntensityTrace(np.repeat(self.values, rep),
                                        step_seconds, self.start_time, self.zone)
        group = int(round(1.0 / ratio))
        if abs(group - 1.0 / ratio) > 1e-9:
            raise ValueError("downsampling requires an integer step ratio")
        n = (len(self) // group) * group
        if n == 0:
            raise ValueError("trace too short to downsample by that factor")
        vals = self.values[:n].reshape(-1, group).mean(axis=1)
        return CarbonIntensityTrace(vals, step_seconds, self.start_time, self.zone)

    def scale(self, factor: float) -> "CarbonIntensityTrace":
        """Uniformly scale intensities (e.g. marginal-vs-average adjustment)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return CarbonIntensityTrace(self.values * factor, self.step_seconds,
                                    self.start_time, self.zone)

    def shift(self, dt: float) -> "CarbonIntensityTrace":
        """Return the same samples anchored ``dt`` seconds later."""
        return CarbonIntensityTrace(self.values, self.step_seconds,
                                    self.start_time + dt, self.zone)

    def concat(self, other: "CarbonIntensityTrace") -> "CarbonIntensityTrace":
        """Append ``other`` (same step) immediately after this trace."""
        if abs(other.step_seconds - self.step_seconds) > 1e-9:
            raise ValueError("cannot concat traces with different steps")
        return CarbonIntensityTrace(
            np.concatenate([self.values, other.values]),
            self.step_seconds, self.start_time, self.zone or other.zone)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CarbonIntensityTrace(zone={self.zone!r}, n={len(self)}, "
                f"step={self.step_seconds:g}s, mean={self.mean():.1f} g/kWh)")
