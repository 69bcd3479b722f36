"""Tests for the retry schedule and the circuit breaker state machine."""

import numpy as np
import pytest

from repro.service import (
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
    TransientBackendError,
)


def rng():
    return np.random.default_rng(0)


class FailNTimes:
    def __init__(self, n, exc=TransientBackendError):
        self.remaining = n
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.exc("injected")
        return "ok"


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self, sleeper):
        fn = FailNTimes(2)
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.1,
                             jitter_fraction=0.0)
        assert policy.run(fn, rng=rng(), sleep=sleeper) == "ok"
        assert fn.calls == 3
        assert sleeper.delays == [0.1, 0.2]  # exponential, no jitter

    def test_exhaustion_reraises_last_error(self, sleeper):
        fn = FailNTimes(5)
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        with pytest.raises(TransientBackendError):
            policy.run(fn, rng=rng(), sleep=sleeper)
        assert fn.calls == 3

    def test_non_retryable_propagates_immediately(self, sleeper):
        fn = FailNTimes(1, exc=ValueError)
        policy = RetryPolicy(max_attempts=5)
        with pytest.raises(ValueError):
            policy.run(fn, rng=rng(), sleep=sleeper)
        assert fn.calls == 1
        assert sleeper.delays == []

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0,
                             jitter_fraction=0.25)
        delays = [policy.delay_s(1, np.random.default_rng(s))
                  for s in range(50)]
        assert all(0.75 <= d <= 1.25 for d in delays)
        assert len(set(delays)) > 1  # actually jittered

    def test_jitter_is_seed_deterministic(self):
        policy = RetryPolicy(jitter_fraction=0.5)
        a = policy.delay_s(2, np.random.default_rng(7))
        b = policy.delay_s(2, np.random.default_rng(7))
        assert a == b

    def test_on_retry_callback_counts_attempts(self, sleeper):
        fn = FailNTimes(2)
        seen = []
        RetryPolicy(max_attempts=3, base_delay_s=0.0).run(
            fn, rng=rng(), sleep=sleeper, on_retry=seen.append)
        assert seen == [1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=2.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay_s(0, rng())


class TestCircuitBreaker:
    def test_opens_at_threshold(self, clock):
        br = CircuitBreaker(failure_threshold=3, recovery_s=10.0, clock=clock)
        br.record_failure()
        br.record_failure()
        assert br.state is BreakerState.CLOSED and br.allow()
        br.record_failure()
        assert br.state is BreakerState.OPEN and not br.allow()
        with pytest.raises(CircuitOpenError):
            br.check()

    def test_success_resets_the_count(self, clock):
        br = CircuitBreaker(failure_threshold=2, recovery_s=10.0, clock=clock)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state is BreakerState.CLOSED

    def test_half_opens_after_cooldown(self, clock):
        br = CircuitBreaker(failure_threshold=1, recovery_s=10.0, clock=clock)
        br.record_failure()
        assert not br.allow()
        clock.advance(10.0)
        assert br.state is BreakerState.HALF_OPEN
        assert br.allow()  # the probe goes through

    def test_successful_probe_closes(self, clock):
        br = CircuitBreaker(failure_threshold=1, recovery_s=10.0, clock=clock)
        br.record_failure()
        clock.advance(10.0)
        assert br.allow()
        br.record_success()
        assert br.state is BreakerState.CLOSED

    def test_failed_probe_reopens_full_cooldown(self, clock):
        br = CircuitBreaker(failure_threshold=1, recovery_s=10.0, clock=clock)
        br.record_failure()
        clock.advance(10.0)
        assert br.state is BreakerState.HALF_OPEN
        br.record_failure()
        assert br.state is BreakerState.OPEN
        clock.advance(9.9)
        assert not br.allow()
        clock.advance(0.1)
        assert br.allow()

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0, clock=clock)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_s=0.0, clock=clock)
