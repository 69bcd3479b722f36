"""Exception taxonomy of the carbon-data serving layer.

The split matters operationally: *transient* backend trouble
(:class:`TransientBackendError`) is retried and, when retries are
exhausted, absorbed by the degradation chain (last-good value or
fallback provider, in the order each lookup kind uses), while
caller bugs (``ValueError`` on an invalid window) propagate untouched —
masking those would hide real defects behind fallback values.
:class:`ServiceUnavailableError` is the only error a well-configured
:class:`~repro.service.core.CarbonService` ever raises to a consumer,
and only when every degradation tier is empty.
"""

from __future__ import annotations

__all__ = [
    "ServiceError",
    "TransientBackendError",
    "CircuitOpenError",
    "ServiceUnavailableError",
]


class ServiceError(RuntimeError):
    """Base class for every error the serving layer raises itself."""


class TransientBackendError(ServiceError):
    """A backend call failed in a way worth retrying (flaky network,
    rate limit, 5xx).  Fault wrappers in :mod:`repro.service.faults`
    raise exactly this."""


class CircuitOpenError(ServiceError):
    """The circuit breaker is open: the backend is presumed down and
    calls are refused without being attempted."""


class ServiceUnavailableError(ServiceError):
    """Backend unreachable *and* no last-good or fallback value
    exists — the one terminal failure mode of the serving layer."""
