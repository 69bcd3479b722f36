"""Carbon-data serving layer: cache -> retry/breaker -> provider.

The production-shaped front for the repo's
:class:`~repro.grid.providers.CarbonIntensityProvider` seam (see
DESIGN.md §"repro.service" for the architecture sketch), for callers
that front a remote or flaky provider.  A
:class:`~repro.service.core.CarbonService` answers exactly as the raw
provider would, and adds a spot-lookup cache, batch deduplication,
retry/backoff, a circuit breaker with graceful degradation, and
operational metrics.  History windows pass straight through the
retry/breaker guard: they are never cached.

Public API
----------
:class:`CarbonService`
    The serving layer itself.
:class:`LRUCache`
    Accounted bounded LRU cache (standalone-usable).
:class:`RetryPolicy` / :class:`CircuitBreaker` / :class:`BreakerState`
    Robustness middleware.
:class:`FlakyProvider` / :class:`SlowProvider`
    Fault-injection wrappers for tests and benchmarks.
Errors
    :class:`ServiceError`, :class:`TransientBackendError`,
    :class:`CircuitOpenError`, :class:`ServiceUnavailableError`.

The metrics registry behind ``repro service stats`` is
:class:`repro.obs.MetricsRegistry`.
"""

from repro.service.cache import MISSING, LRUCache
from repro.service.core import SIGNALS, CarbonService
from repro.service.errors import (
    CircuitOpenError,
    ServiceError,
    ServiceUnavailableError,
    TransientBackendError,
)
from repro.service.faults import FlakyProvider, SlowProvider
from repro.service.retry import BreakerState, CircuitBreaker, RetryPolicy

__all__ = [
    "CarbonService",
    "SIGNALS",
    "LRUCache",
    "MISSING",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerState",
    "FlakyProvider",
    "SlowProvider",
    "ServiceError",
    "TransientBackendError",
    "CircuitOpenError",
    "ServiceUnavailableError",
]
