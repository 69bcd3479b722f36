"""Robustness middleware: retry with backoff+jitter, and a circuit breaker.

The two standard defenses a long-lived service mounts in front of a
flaky data source, in their textbook forms:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  multiplicative jitter (decorrelates clients hammering a recovering
  backend);
* :class:`CircuitBreaker` — after ``failure_threshold`` *consecutive*
  failed requests the circuit opens and calls are refused outright for
  ``recovery_s`` (no point queueing retries at a dead backend); one
  probe is then let through (*half-open*) and its outcome decides
  between closing the circuit and another full cooldown.

Both are clock- and sleep-injectable so every state transition is unit
testable without wall-clock waits, and the jitter RNG is seeded so runs
are reproducible — the same determinism contract the providers obey.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

import numpy as np

from repro.service.errors import CircuitOpenError, TransientBackendError

__all__ = ["RetryPolicy", "CircuitBreaker", "BreakerState"]

_T = TypeVar("_T")

#: exception types the retry loop treats as transient; anything else
#: propagates immediately (caller bugs must not burn retry budget)
RETRYABLE: Tuple[Type[BaseException], ...] = (
    TransientBackendError, ConnectionError, TimeoutError)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry schedule.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (1 = no retry).
    base_delay_s:
        Sleep before the first retry; attempt ``k`` waits
        ``base_delay_s * multiplier**(k-1)``, jittered.
    multiplier:
        Backoff growth factor (>= 1).
    jitter_fraction:
        Each delay is scaled by ``1 + U(-j, +j)`` — full decorrelation
        at ``j=1``, none at ``j=0``.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0:
            raise ValueError("base_delay_s must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")

    def delay_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Jittered sleep before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = self.base_delay_s * self.multiplier ** (attempt - 1)
        if self.jitter_fraction == 0.0:
            return raw
        lo, hi = 1.0 - self.jitter_fraction, 1.0 + self.jitter_fraction
        return raw * float(rng.uniform(lo, hi))

    def run(self, fn: Callable[[], _T], *,
            rng: np.random.Generator,
            sleep: Callable[[float], None] = time.sleep,
            on_retry: Optional[Callable[[int], None]] = None) -> _T:
        """Call ``fn`` under this schedule; returns its value or raises
        the last retryable error.  ``on_retry(attempt)`` fires before
        each backoff sleep — the service counts these, so
        recovered-after-retry flakiness is visible in the metrics, not
        silently absorbed."""
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except RETRYABLE:
                if attempt == self.max_attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt)
                sleep(self.delay_s(attempt, rng))
        raise AssertionError("unreachable")  # pragma: no cover


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing.

    Parameters
    ----------
    failure_threshold:
        Consecutive request failures that open the circuit.
    recovery_s:
        Cooldown before a half-open probe is allowed through.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, failure_threshold: int = 5,
                 recovery_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_s <= 0:
            raise ValueError("recovery_s must be positive")
        self.failure_threshold = int(failure_threshold)
        self.recovery_s = float(recovery_s)
        self.clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> BreakerState:
        """Current state (transitions OPEN -> HALF_OPEN lazily on read)."""
        if (self._state is BreakerState.OPEN
                and self.clock() - self._opened_at >= self.recovery_s):
            self._state = BreakerState.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May a request proceed right now?  (HALF_OPEN allows the probe.)"""
        return self.state is not BreakerState.OPEN

    def record_success(self) -> None:
        """A request succeeded: close the circuit, reset the count."""
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0

    def record_failure(self) -> None:
        """A request failed (after its retries): count it; trip or
        re-open as the state machine dictates."""
        if self.state is BreakerState.HALF_OPEN:
            # failed probe: straight back to a full cooldown
            self._state = BreakerState.OPEN
            self._opened_at = self.clock()
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._state = BreakerState.OPEN
            self._opened_at = self.clock()

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` unless a request may proceed."""
        if not self.allow():
            remaining = self.recovery_s - (self.clock() - self._opened_at)
            raise CircuitOpenError(
                f"circuit open after {self._consecutive_failures} "
                f"consecutive failures; retry in {max(0.0, remaining):.1f}s")
