"""Fault-injection provider wrappers for exercising the serving layer.

Real grid-data backends fail in exactly two ways that matter to a
client: they *error* (rate limits, 5xx, dropped connections) and they
are *slow* (WAN round trips).  These wrappers graft both behaviors onto
any deterministic :class:`~repro.grid.providers.CarbonIntensityProvider`
so tests and benchmarks can drive every failure path of
:class:`~repro.service.core.CarbonService` reproducibly:

* :class:`FlakyProvider` — raises
  :class:`~repro.service.errors.TransientBackendError` on a seeded
  fraction of calls (or on every call while ``fail_all`` is set, the
  switch fault-injection tests flip to trip and then heal the breaker);
* :class:`SlowProvider` — adds a fixed latency per backend call through
  an injectable ``sleep`` (real ``time.sleep`` in benchmarks, a
  recording stub in tests).

Both count their traffic (``calls``, ``failures``, ``slept_s``) so a
test can assert *exactly* how many calls reached the backend — the
ground truth that cache-hit and coalescing counters are checked against.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.grid.intensity import CarbonIntensityTrace
from repro.grid.providers import CarbonIntensityProvider
from repro.service.errors import TransientBackendError

__all__ = ["FlakyProvider", "SlowProvider"]


class FlakyProvider(CarbonIntensityProvider):
    """Deterministically unreliable wrapper around a real provider.

    Parameters
    ----------
    inner:
        The wrapped provider answering the calls that survive.
    failure_rate:
        Probability any given call raises, drawn from a seeded RNG —
        the same seed gives the same failure sequence, per the repo's
        determinism contract.
    seed:
        RNG seed for the failure sequence.
    fail_all:
        While true, *every* call fails regardless of ``failure_rate``;
        mutable at any time (tests flip it to simulate an outage and
        the subsequent recovery).
    """

    def __init__(self, inner: CarbonIntensityProvider,
                 failure_rate: float = 0.0, seed: int = 0,
                 fail_all: bool = False) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        self.inner = inner
        self.failure_rate = float(failure_rate)
        self.fail_all = bool(fail_all)
        self.zone_code = inner.zone_code
        self._rng = np.random.default_rng(seed)
        self.calls = 0
        self.failures = 0

    def _maybe_fail(self, what: str) -> None:
        self.calls += 1
        fail = self.fail_all or (
            self.failure_rate > 0.0
            and float(self._rng.random()) < self.failure_rate)
        if fail:
            self.failures += 1
            raise TransientBackendError(
                f"injected backend failure on {what} "
                f"(call #{self.calls})")

    def intensity_at(self, t: float) -> float:
        self._maybe_fail("intensity_at")
        return self.inner.intensity_at(t)

    def average_intensity_at(self, t: float) -> float:
        self._maybe_fail("average_intensity_at")
        return self.inner.average_intensity_at(t)

    def history(self, t0: float, t1: float) -> CarbonIntensityTrace:
        self._maybe_fail("history")
        return self.inner.history(t0, t1)


class SlowProvider(CarbonIntensityProvider):
    """Adds a fixed per-call latency — a stand-in for WAN round trips.

    Parameters
    ----------
    inner:
        The wrapped provider.
    latency_s:
        Delay added to every call.
    sleep:
        Injectable delay function; defaults to real ``time.sleep`` (what
        the cache benchmark wants), tests pass a recording no-op.
    """

    def __init__(self, inner: CarbonIntensityProvider,
                 latency_s: float = 0.001,
                 sleep: Optional[Callable[[float], None]] = None) -> None:
        if latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        self.inner = inner
        self.latency_s = float(latency_s)
        self.sleep = sleep if sleep is not None else time.sleep
        self.zone_code = inner.zone_code
        self.calls = 0
        self.slept_s = 0.0

    def _delay(self) -> None:
        self.calls += 1
        self.slept_s += self.latency_s
        self.sleep(self.latency_s)

    def intensity_at(self, t: float) -> float:
        self._delay()
        return self.inner.intensity_at(t)

    def average_intensity_at(self, t: float) -> float:
        self._delay()
        return self.inner.average_intensity_at(t)

    def history(self, t0: float, t1: float) -> CarbonIntensityTrace:
        self._delay()
        return self.inner.history(t0, t1)
