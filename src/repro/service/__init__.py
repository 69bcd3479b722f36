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
:class:`ServiceMetrics` (+ :class:`Counter`, :class:`Gauge`,
:class:`LatencyHistogram`)
    The observability registry behind ``repro service stats`` — an
    alias of :class:`repro.obs.registry.MetricsRegistry`, the unified
    stack-wide registry.
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
    ServiceMetrics,
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
    "ServiceMetrics",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "ServiceError",
    "TransientBackendError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "ServiceUnavailableError",
]
