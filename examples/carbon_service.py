#!/usr/bin/env python3
"""Serving carbon data through CarbonService: caching, coalescing,
retry, and graceful degradation.

Walks the serving layer through the situations a deployed carbon-aware
scheduler actually faces: a slow provider API (cache + coalescing wins),
a flaky one (retries absorb transient errors), and a full outage (the
circuit breaker opens and queries degrade to last-good/fallback data
instead of raising into the scheduler).

Run:  python examples/carbon_service.py
"""

from repro.grid import StaticProvider, SyntheticProvider
from repro.service import (
    CarbonService,
    CircuitBreaker,
    FlakyProvider,
    RetryPolicy,
    SlowProvider,
)

HOUR = 3600.0


def main() -> None:
    # --- 1. caching + coalescing against a slow backend -------------
    # 0.5 ms per call stands in for a provider API round trip.
    backend = SlowProvider(SyntheticProvider("DE", seed=0), latency_s=0.0005)
    service = CarbonService(backend, quantize_s=300.0)  # 5-min bins

    # a scheduler pass: every queued job asks about the same window
    times = [t * 60.0 for t in range(60)] * 20  # 1200 queries, 12 bins
    values = service.batch_intensity(times)
    print(f"batch of {len(times)} queries answered with "
          f"{backend.calls} backend calls "
          f"(mean intensity {values.mean():.0f} gCO2/kWh)")

    # --- 2. a flaky backend: retries absorb transient errors --------
    flaky = FlakyProvider(SyntheticProvider("DE", seed=0),
                          failure_rate=0.3, seed=1)
    service = CarbonService(
        flaky,
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.001),
        breaker=CircuitBreaker(failure_threshold=5, recovery_s=60.0),
        fallback=StaticProvider(350.0, "grid-average"))
    for h in range(24):
        service.intensity_at(h * HOUR)  # none of these raise
    snap = service.snapshot()
    print(f"24 queries over a 30%-flaky backend: "
          f"{snap.get('backend.retries', 0)} retries, "
          f"{snap.get('degraded.fallback', 0)} fallbacks, 0 exceptions")

    # --- 3. a dead backend: breaker opens, service degrades ---------
    flaky.fail_all = True  # total outage
    for h in range(10):
        # fresh timestamps: each fetch fails, the breaker counts them,
        # opens at its threshold, and the answers degrade silently
        service.intensity_at((100 + h) * HOUR)
    v = service.intensity_at(999 * HOUR)  # never seen before -> fallback
    print(f"during the outage the breaker is {service.breaker.state.name} "
          f"and a cold query still gets {v:.0f} gCO2/kWh "
          f"(the last-good/fallback tier)")

    # --- 4. the metrics the operator would look at ------------------
    print()
    print(service.render_stats())


if __name__ == "__main__":
    main()
