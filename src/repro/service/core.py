"""``CarbonService``: the serving layer in front of any intensity provider.

The paper's schedulers (§3.3) and PowerStack monitors (§3.1) poll grid
signals continuously, the way production tools wrap ElectricityMaps or
WattTime.  Polling a raw provider does not survive production traffic:
every consumer pays the backend round trip, repeated lookups in the
same tick are re-fetched N times, and one flaky backend takes the whole
scheduler down with it.  :class:`CarbonService` is the standard answer,
assembled from this package's parts::

    spot lookup ──> cache (LRU) ──> retry/breaker ──> provider
                      │ hit               │ trip
                      └── value           └── last-good / fallback

    history ─────────────────────> retry/breaker ──> provider
    integral                              │ trip
                                          └── fallback / flat last-good

Only spot lookups are cached: accounting asks for a different interval
at every step, so a window or integral cache would never hit.  An
integral (what accounting charges a step with) degrades like a history
window: the fallback provider's integral, else the last-good spot value
held flat over the interval.  Because the service *is itself* a
:class:`~repro.grid.providers.CarbonIntensityProvider`, it drops into
any seam that takes a provider without changing a call site.
With the default ``quantize_s=0`` it is **value-transparent**:
deterministic backends yield bit-identical answers through the service,
so simulation results are unchanged while repeated spot lookups
collapse onto the cache.  Dial ``quantize_s`` up to trade freshness for
throughput the way 5-minute-granularity monitors do.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.grid.intensity import CarbonIntensityTrace
from repro.grid.providers import CarbonIntensityProvider
from repro.service.cache import MISSING, LRUCache
from repro.service.errors import CircuitOpenError, ServiceUnavailableError
from repro import obs
from repro.obs.registry import MetricsRegistry
from repro.service.retry import (
    RETRYABLE,
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
)

__all__ = ["CarbonService", "SIGNALS"]

#: the two intensity signals a provider serves (see providers.py: the
#: paper's Figure 2 plots *marginal*; *average* is the consumption mix)
SIGNALS = ("marginal", "average")

#: everything the degradation chain absorbs (callers never see these
#: unless every degradation tier is empty)
_ABSORBED = (CircuitOpenError,) + RETRYABLE

_BREAKER_STATE_GAUGE = {BreakerState.CLOSED: 0.0,
                        BreakerState.HALF_OPEN: 1.0,
                        BreakerState.OPEN: 2.0}


class CarbonService(CarbonIntensityProvider):
    """Caching, fault-tolerant front for one provider.

    Parameters
    ----------
    backend:
        The wrapped provider (possibly flaky/slow — see
        :mod:`repro.service.faults`).
    quantize_s:
        Spot-lookup times are floored to multiples of this before
        hitting cache *and* backend, so all lookups in one quantization
        window share one value.  ``0`` (default) keys on exact times —
        fully value-transparent.
    max_entries:
        Spot-cache capacity (LRU beyond it).
    retry:
        Backoff schedule for backend calls.
    breaker:
        Circuit breaker; created with defaults when omitted.
    fallback:
        Last-resort provider (e.g. a
        :class:`~repro.grid.providers.StaticProvider` at the zone mean)
        consulted when the backend is down.
    seed:
        Seed for the retry-jitter RNG.
    clock, sleep:
        Injectable time sources for breaker/backoff — tests drive them
        synthetically, production uses the real ones.
    """

    def __init__(self, backend: CarbonIntensityProvider, *,
                 quantize_s: float = 0.0,
                 max_entries: int = 4096,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 fallback: Optional[CarbonIntensityProvider] = None,
                 seed: int = 0,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if quantize_s < 0:
            raise ValueError("quantize_s must be non-negative")
        self.backend = backend
        self.zone_code = backend.zone_code
        self.quantize_s = float(quantize_s)
        self.metrics = MetricsRegistry()
        self.cache = LRUCache(max_entries=max_entries, metrics=self.metrics)
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None \
            else CircuitBreaker(clock=clock)
        self.fallback = fallback
        self.clock = clock
        self.sleep = sleep
        self._rng = np.random.default_rng(seed)
        self._calls = self.metrics.counter("backend.calls")
        self._latency = self.metrics.histogram("backend.latency")
        #: most recent fresh value per signal, for degraded reads
        self._last_good_g_per_kwh: Dict[str, float] = {}

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def ensure(cls, provider: CarbonIntensityProvider) -> "CarbonService":
        """``provider`` unchanged if it already is a service, else wrap it
        with the default options, so stacking never double-wraps."""
        if isinstance(provider, CarbonService):
            return provider
        return cls(provider)

    # -- keys --------------------------------------------------------------------

    def _quantize(self, t: float) -> float:
        if self.quantize_s == 0.0:
            return float(t)
        return float(np.floor(t / self.quantize_s) * self.quantize_s)

    def _spot_key(self, t: float, signal: str):
        if signal not in SIGNALS:
            raise ValueError(f"unknown signal {signal!r}; one of {SIGNALS}")
        return (self.zone_code, signal, self._quantize(t))

    # -- guarded backend access ----------------------------------------------------

    def _backend_call(self, fn: Callable[[], object]):
        """One guarded request: breaker gate -> retry loop -> accounting."""
        self.breaker.check()
        started = self.clock()
        with obs.span("service.backend_call",
                      attrs={"zone": self.zone_code}):
            try:
                value = self.retry.run(
                    fn, rng=self._rng, sleep=self.sleep,
                    on_retry=lambda _a: self.metrics.counter(
                        "backend.retries").inc())
            except _ABSORBED:
                self.breaker.record_failure()
                self.metrics.counter("backend.failures").inc()
                raise
        self.breaker.record_success()
        self._calls.inc()
        self._latency.observe(max(0.0, self.clock() - started))
        return value

    def _update_breaker_gauge(self) -> None:
        self.metrics.gauge("breaker.state").set(
            _BREAKER_STATE_GAUGE[self.breaker.state])

    # -- spot lookups --------------------------------------------------------------

    def _fetch_spot_key(self, key) -> float:
        """Backend fetch for one spot key, with the degradation chain.

        Never raises while the last-good value or the fallback provider
        can answer — the "never raise to the scheduler" guarantee.
        """
        zone, signal, tq = key
        call = (self.backend.intensity_at if signal == "marginal"
                else self.backend.average_intensity_at)
        try:
            value = float(self._backend_call(lambda: call(tq)))
        except _ABSORBED as exc:
            return self._degrade_spot(key, exc)
        self.cache.put(key, value)
        self._last_good_g_per_kwh[signal] = value
        return value

    def _degrade_spot(self, key, exc: BaseException) -> float:
        zone, signal, tq = key
        if signal in self._last_good_g_per_kwh:
            self.metrics.counter("degraded.last_good").inc()
            return self._last_good_g_per_kwh[signal]
        if self.fallback is not None:
            self.metrics.counter("degraded.fallback").inc()
            call = (self.fallback.intensity_at if signal == "marginal"
                    else self.fallback.average_intensity_at)
            return float(call(tq))
        raise ServiceUnavailableError(
            f"zone {zone}: backend down and no last-good/fallback value "
            f"for {signal} intensity at t={tq}") from exc

    def _spot(self, t: float, signal: str) -> float:
        key = self._spot_key(t, signal)
        cached = self.cache.get(key)
        if cached is not MISSING:
            return cached
        return self._fetch_spot_key(key)

    # -- provider API (what every existing consumer calls) -------------------------

    def intensity_at(self, t: float) -> float:
        return self._spot(t, "marginal")

    def average_intensity_at(self, t: float) -> float:
        return self._spot(t, "average")

    def history(self, t0: float, t1: float) -> CarbonIntensityTrace:
        """History window: one guarded backend call, never cached
        (exact times — accounting integrates these, so quantization is
        never applied to windows)."""
        try:
            return self._backend_call(lambda: self.backend.history(t0, t1))
        except _ABSORBED as exc:
            # flat window at the last spot value: crude, but policies
            # keep running through an outage instead of crashing
            return self._degrade_interval(
                t0, t1, exc, lambda p: p.history(t0, t1),
                lambda v: CarbonIntensityTrace.constant(
                    v, t1 - t0, start_time=t0, zone=self.zone_code))

    def history_range(self, t0: float, t1: float):
        """The backend's key, with no backend call or retry: a key
        fetches no data, and a backend that can fail reports None, so
        its windows are fetched.  None too unless the breaker is closed:
        then ``history`` answers from the degradation chain, and its
        flat or fallback window is not the one the backend's key names."""
        if self.breaker.state is not BreakerState.CLOSED:
            return None
        return self.backend.history_range(t0, t1)

    def integrate_intensity(self, t0: float, t1: float) -> float:
        """Intensity integral over ``[t0, t1)``: one guarded backend call,
        never cached, degrading in the same order as :meth:`history`."""
        try:
            return self._backend_call(
                lambda: self.backend.integrate_intensity(t0, t1))
        except _ABSORBED as exc:
            return self._degrade_interval(
                t0, t1, exc, lambda p: p.integrate_intensity(t0, t1),
                lambda v: v * (t1 - t0))

    def _degrade_interval(self, t0: float, t1: float, exc: BaseException,
                          from_fallback: Callable, from_flat: Callable):
        """Answer an interval request while the backend is down: from
        the fallback provider, else from the last-good marginal value
        held flat over ``[t0, t1)``."""
        if self.fallback is not None:
            self.metrics.counter("degraded.fallback").inc()
            return from_fallback(self.fallback)
        if "marginal" in self._last_good_g_per_kwh:
            self.metrics.counter("degraded.last_good").inc()
            return from_flat(self._last_good_g_per_kwh["marginal"])
        raise ServiceUnavailableError(
            f"zone {self.zone_code}: backend down and no fallback/last-good "
            f"value for [{t0}, {t1})") from exc

    # -- batched lookups ------------------------------------------------------------

    def batch_intensity(self, times: Sequence[float],
                        signal: str = "marginal") -> np.ndarray:
        """Vectorized spot lookup: cache hits answered immediately,
        the misses deduplicated so each unique quantized key costs one
        backend call no matter how many duplicates the burst contains.

        Counters: ``coalesce.requests`` (misses), ``coalesce.fetches``
        (unique misses fetched) and ``coalesce.deduplicated`` (their
        difference)."""
        out = np.empty(len(times), dtype=np.float64)
        # unique missed key -> every output slot waiting on it
        misses: Dict[tuple, List[int]] = {}
        for i, t in enumerate(times):
            key = self._spot_key(float(t), signal)
            cached = self.cache.get(key)
            if cached is not MISSING:
                out[i] = cached
                continue
            self.metrics.counter("coalesce.requests").inc()
            slots = misses.get(key)
            if slots is None:
                misses[key] = [i]
            else:
                self.metrics.counter("coalesce.deduplicated").inc()
                slots.append(i)
        for key, slots in misses.items():
            self.metrics.counter("coalesce.fetches").inc()
            out[slots] = self._fetch_spot_key(key)
        return out

    # -- observability ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Current metrics (breaker state gauge refreshed first)."""
        self._update_breaker_gauge()
        return self.metrics.snapshot()

    def render_stats(self) -> str:
        """The ``repro service stats`` text block."""
        self._update_breaker_gauge()
        header = (f"carbon service: zone={self.zone_code} "
                  f"quantize={self.quantize_s:g}s "
                  f"breaker={self.breaker.state.value}")
        return header + "\n" + self.metrics.render()
