"""Carbon-data serving layer: cache -> retry/breaker -> provider.

The production-shaped front for the repo's
:class:`~repro.grid.providers.CarbonIntensityProvider` seam (see
DESIGN.md §"repro.service" for the architecture sketch), for callers
that front a remote or flaky provider.  A
:class:`~repro.service.core.CarbonService` answers exactly as the raw
provider would, and adds caching, batch deduplication, retry/backoff,
a circuit breaker with graceful degradation, and operational metrics.

Public API
----------
:class:`CarbonService`
    The serving layer itself.
:class:`TTLLRUCache`
    Accounted TTL+LRU cache (standalone-usable).
:class:`RetryPolicy` / :class:`CircuitBreaker` / :class:`BreakerState`
    Robustness middleware.
:class:`FlakyProvider` / :class:`SlowProvider`
    Fault-injection wrappers for tests and benchmarks.
:class:`MetricsRegistry` (+ :class:`Counter`, :class:`Gauge`,
:class:`LatencyHistogram`)
    The observability registry behind ``repro service stats`` — the
    unified stack-wide registry of :mod:`repro.obs.registry`.
Errors
    :class:`ServiceError`, :class:`TransientBackendError`,
    :class:`DeadlineExceededError`, :class:`CircuitOpenError`,
    :class:`ServiceUnavailableError`.
"""

from repro.service.cache import MISSING, TTLLRUCache
from repro.service.core import SIGNALS, CarbonService
from repro.service.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceError,
    ServiceUnavailableError,
    TransientBackendError,
)
from repro.service.faults import FlakyProvider, SlowProvider
from repro.obs.registry import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.service.retry import BreakerState, CircuitBreaker, RetryPolicy

__all__ = [
    "CarbonService",
    "SIGNALS",
    "TTLLRUCache",
    "MISSING",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerState",
    "FlakyProvider",
    "SlowProvider",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "ServiceError",
    "TransientBackendError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "ServiceUnavailableError",
]
