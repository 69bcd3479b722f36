"""Provider API for carbon-intensity data.

The scheduler (§3.3), the PowerStack carbon monitor (§3.1), and the
accounting layer (§3.4) all consume intensity through one narrow
interface, :class:`CarbonIntensityProvider`, mirroring how production
tools would wrap ElectricityMaps/WattTime.  Three implementations ship:

* :class:`SyntheticProvider` — backed by the calibrated generative zone
  models (the offline substitute for a real provider);
* :class:`TraceProvider` — wraps an arbitrary precomputed
  :class:`~repro.grid.intensity.CarbonIntensityTrace` (e.g. loaded from a
  CSV of real data, or handcrafted in tests);
* :class:`StaticProvider` — a constant intensity, modeling sites like LRZ
  that operate at a contractually fixed intensity (20 gCO2/kWh hydro).

Providers distinguish *marginal* and *average* intensity signals — the
paper's Figure 2 explicitly plots marginal intensities, and the choice
changes what carbon-aware policies should optimize (an ablation target in
DESIGN.md §5).  The synthetic zone calibration describes the marginal
signal; the average signal is derived as a damped version of it, since
average intensity fluctuates less than the marginal generator's.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable

import numpy as np

from repro import units
from repro.grid.intensity import CarbonIntensityTrace
from repro.grid.synthetic import SyntheticGridModel
from repro.grid.zones import ZoneProfile

__all__ = [
    "CarbonIntensityProvider",
    "StaticProvider",
    "TraceProvider",
    "SyntheticProvider",
    "TrailingHistory",
]


class CarbonIntensityProvider(ABC):
    """Interface every intensity consumer programs against.

    ``intensity_at`` answers "what is the intensity right now" — this is
    the *actuals* feed a monitor would poll.  ``history`` returns the past
    window used to fit forecasters, and ``integrate_intensity`` the
    integral accounting charges a step with.  Implementations must be
    deterministic: repeated calls with the same arguments return the same
    values.

    ``history_range`` is a key for a ``history`` window that fetches no
    data: two calls that return equal keys promise ``history`` traces
    that are ``==``, so a caller holding the first trace may skip the
    second request.  ``None`` (the default) means "fetch to know"; a
    provider that can fail, stall or revise its data must report it, so
    every request still reaches it.
    """

    #: zone code for provenance/reporting
    zone_code: str = ""

    @abstractmethod
    def intensity_at(self, t: float) -> float:
        """Marginal carbon intensity (gCO2e/kWh) in effect at time ``t``."""

    @abstractmethod
    def history(self, t0: float, t1: float) -> CarbonIntensityTrace:
        """The actual intensity trace over ``[t0, t1)``."""

    def history_range(self, t0: float, t1: float) -> Hashable | None:
        """Key of the ``history(t0, t1)`` window, or None to fetch it."""
        return None

    def average_intensity_at(self, t: float) -> float:
        """Average (consumption-mix) intensity; defaults to the marginal one."""
        return self.intensity_at(t)

    def mean_over(self, t0: float, t1: float) -> float:
        """Time-weighted mean intensity over ``[t0, t1)``."""
        return self.history(t0, t1).mean_over(t0, t1)

    def integrate_intensity(self, t0: float, t1: float) -> float:
        """``∫ CI(t) dt`` over ``[t0, t1)`` in (g/kWh)·s.

        Integrates the ``history`` window, so wrappers that act on
        ``history`` act on this too; providers holding a full trace
        override it to integrate there without building a window.
        """
        return self.history(t0, t1).integrate_intensity(t0, t1)


class StaticProvider(CarbonIntensityProvider):
    """Constant intensity — e.g. LRZ's contractual 20 gCO2/kWh hydropower.

    Parameters
    ----------
    intensity:
        The fixed marginal intensity in gCO2e/kWh.
    zone_code:
        Optional label for reports.
    """

    def __init__(self, intensity: float, zone_code: str = "STATIC") -> None:
        if intensity < 0:
            raise ValueError("intensity must be non-negative")
        self.intensity = float(intensity)
        self.zone_code = zone_code

    def intensity_at(self, t: float) -> float:
        return self.intensity

    def history(self, t0: float, t1: float) -> CarbonIntensityTrace:
        if t1 <= t0:
            raise ValueError("empty history window")
        return CarbonIntensityTrace.constant(
            self.intensity, t1 - t0, start_time=t0, zone=self.zone_code)


class TraceProvider(CarbonIntensityProvider):
    """Serve intensity from a precomputed trace (real data or test fixture)."""

    def __init__(self, trace: CarbonIntensityTrace,
                 average_trace: CarbonIntensityTrace | None = None) -> None:
        self.trace = trace
        self.average_trace = average_trace
        self.zone_code = trace.zone or "TRACE"

    def intensity_at(self, t: float) -> float:
        return self.trace.at(t)

    def average_intensity_at(self, t: float) -> float:
        if self.average_trace is not None:
            return self.average_trace.at(t)
        return self.trace.at(t)

    def history(self, t0: float, t1: float) -> CarbonIntensityTrace:
        return self.trace.window(t0, t1)

    def history_range(self, t0: float, t1: float) -> tuple[int, int]:
        """The trace's sample range of the window (the trace never changes)."""
        return self.trace.sample_range(t0, t1)

    def integrate_intensity(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            raise ValueError(f"empty window [{t0}, {t1})")
        return self.trace.integrate_intensity(t0, t1)


class SyntheticProvider(CarbonIntensityProvider):
    """Offline stand-in for a grid emissions data provider.

    Generates (and caches) the calibrated synthetic signal for a zone,
    lazily extending the horizon in whole-month chunks as consumers ask
    for later times.  The *average* signal is modeled as the marginal one
    damped toward the monthly mean by ``average_damping`` (average mixes
    in the whole generation fleet, so it swings less than the marginal
    plant; see the "Average vs Marginal" reference [2] of the paper).

    Parameters
    ----------
    zone:
        Zone code or profile (see :mod:`repro.grid.zones`).
    seed:
        Base RNG seed; same seed + zone = identical signal, always.
    step_seconds:
        Sampling step of the underlying signal (default hourly).
    average_damping:
        Fraction of the deviation-from-mean retained by the *average*
        signal (0 = flat at the mean, 1 = identical to marginal).
    """

    #: how many days to generate per lazy extension
    CHUNK_DAYS = 31

    def __init__(self, zone: ZoneProfile | str, seed: int = 0,
                 step_seconds: float = units.SECONDS_PER_HOUR,
                 average_damping: float = 0.6) -> None:
        if not 0.0 <= average_damping <= 1.0:
            raise ValueError("average_damping must be in [0, 1]")
        self.model = SyntheticGridModel(zone, seed)
        self.zone_code = self.model.zone.code
        self.step_seconds = float(step_seconds)
        self.average_damping = float(average_damping)
        self._trace: CarbonIntensityTrace | None = None
        #: queries up to this time keep the generated trace (its days less
        #: the one-day margin ``_ensure_horizon`` asks for)
        self._covered_s = 0.0

    # -- internal: lazy horizon extension ------------------------------------

    def _ensure_horizon(self, t: float) -> CarbonIntensityTrace:
        if self._trace is not None and t <= self._covered_s:
            return self._trace  # have_days >= need_days below
        need_days = int(np.ceil(max(t, 1.0) / units.SECONDS_PER_DAY)) + 1
        have_days = 0 if self._trace is None else int(
            round(self._trace.duration / units.SECONDS_PER_DAY))
        if have_days < need_days:
            # Regenerate the full horizon deterministically so the prefix
            # is *identical* regardless of the order consumers asked in.
            # Chunk 0 uses the base seed (so the first month equals
            # generate_month(zone, seed)); later chunks derive fresh seeds
            # so the signal does not repeat every CHUNK_DAYS days.
            total = max(need_days, self.CHUNK_DAYS)
            total = int(np.ceil(total / self.CHUNK_DAYS)) * self.CHUNK_DAYS
            chunks = [
                SyntheticGridModel(
                    self.model.zone,
                    self.model.seed if i == 0
                    else self.model.seed + 1_000_003 * i,
                ).generate(
                    self.CHUNK_DAYS, self.step_seconds,
                    start_time=i * self.CHUNK_DAYS * units.SECONDS_PER_DAY)
                for i in range(total // self.CHUNK_DAYS)
            ]
            trace = chunks[0]
            for c in chunks[1:]:
                trace = trace.concat(c)
            self._trace = trace
            self._covered_s = (round(trace.duration / units.SECONDS_PER_DAY)
                               - 1) * units.SECONDS_PER_DAY
        assert self._trace is not None
        return self._trace

    # -- provider API ---------------------------------------------------------

    def intensity_at(self, t: float) -> float:
        if t < 0:
            raise ValueError("time must be non-negative")
        return self._ensure_horizon(t).at(t)

    def average_intensity_at(self, t: float) -> float:
        mean = self.model.zone.mean_intensity_g_per_kwh
        return mean + self.average_damping * (self.intensity_at(t) - mean)

    def _covering(self, t0: float, t1: float) -> CarbonIntensityTrace:
        """The generated trace, long enough for the window ``[t0, t1)``."""
        if t0 < 0 or t1 <= t0:
            raise ValueError(f"invalid history window [{t0}, {t1})")
        return self._ensure_horizon(t1)

    def history(self, t0: float, t1: float) -> CarbonIntensityTrace:
        return self._covering(t0, t1).window(t0, t1)

    def history_range(self, t0: float, t1: float) -> tuple[int, int]:
        """The sample range of the window; a longer horizon keeps every
        sample it had, so a range names the same samples for good."""
        return self._covering(t0, t1).sample_range(t0, t1)

    def integrate_intensity(self, t0: float, t1: float) -> float:
        return self._covering(t0, t1).integrate_intensity(t0, t1)


class TrailingHistory:
    """One consumer's trailing ``history`` window over the last
    ``length_s`` (None while shorter than ``min_s``).

    The window is requested only when the key ``(provider,
    provider.history_range(...))`` is None or has moved, and a fetched
    window ``==`` the held one keeps the held object: the same object
    comes back exactly while the samples are unchanged, so callers may
    key what they derive from it on identity.  A ``ValueError`` from the
    provider propagates and leaves the held trace and key as they were.
    """

    def __init__(self, length_s: float, min_s: float) -> None:
        self.length_s = float(length_s)
        self.min_s = float(min_s)
        self._trace: CarbonIntensityTrace | None = None
        self._key: tuple[object, object] | None = None

    def at(self, provider: CarbonIntensityProvider,
           now: float) -> CarbonIntensityTrace | None:
        """The trailing window ending at ``now``, or None if too short."""
        t0 = max(0.0, now - self.length_s)
        if now - t0 < self.min_s:
            return None
        key = (provider, provider.history_range(t0, now))
        if key[1] is None or key != self._key:
            trace = provider.history(t0, now)
            if self._trace is None or self._trace != trace:
                self._trace = trace
            self._key = key
        return self._trace
