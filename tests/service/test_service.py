"""End-to-end tests for CarbonService: transparency, caching, coalescing,
degradation, breaker recovery — the fault-injection suite of the CI gate."""

import numpy as np
import pytest

from repro.grid import StaticProvider, SyntheticProvider, TraceProvider
from repro.grid.intensity import CarbonIntensityTrace
from repro.service import (
    BreakerState,
    CarbonService,
    CircuitBreaker,
    FlakyProvider,
    RetryPolicy,
    ServiceUnavailableError,
)

HOUR = 3600.0
DAY = 86400.0


def no_retry():
    return RetryPolicy(max_attempts=1, base_delay_s=0.0)


def make_service(backend, clock, **kw):
    kw.setdefault("retry", no_retry())
    kw.setdefault("breaker", CircuitBreaker(failure_threshold=3,
                                            recovery_s=30.0, clock=clock))
    return CarbonService(backend, clock=clock, sleep=lambda _s: None, **kw)


class TestTransparency:
    """With default settings the service is value-transparent: consumers
    see bit-identical answers to the raw provider's."""

    def test_spot_history_and_mean_match_raw_provider(self, clock):
        raw = SyntheticProvider("DE", seed=5)
        service = make_service(SyntheticProvider("DE", seed=5), clock)
        for t in (0.0, 13 * HOUR, 2.6 * DAY):
            assert service.intensity_at(t) == raw.intensity_at(t)
            assert service.average_intensity_at(t) == \
                raw.average_intensity_at(t)
        np.testing.assert_array_equal(
            service.history(HOUR, DAY).values,
            raw.history(HOUR, DAY).values)
        assert service.mean_over(0.0, DAY) == raw.mean_over(0.0, DAY)

    def test_caller_bugs_propagate_not_degrade(self, clock):
        service = make_service(SyntheticProvider("DE", seed=0), clock,
                               fallback=StaticProvider(1.0))
        with pytest.raises(ValueError):
            service.intensity_at(-5.0)
        with pytest.raises(ValueError):
            service.history(DAY, HOUR)

    def test_history_range_is_the_backends_key_and_makes_no_call(self,
                                                                 clock):
        """The key passes through unguarded: no backend call, no breaker
        check, and the backend's own key (None for a flaky backend)."""
        raw = SyntheticProvider("DE", seed=5)
        service = make_service(SyntheticProvider("DE", seed=5), clock)
        key = service.history_range(HOUR, DAY)
        assert key == raw.history_range(HOUR, DAY) is not None
        assert service.snapshot().get("backend.calls", 0) == 0
        assert make_service(FlakyProvider(raw), clock).history_range(
            HOUR, DAY) is None

    def test_history_range_is_none_while_the_breaker_is_not_closed(
            self, clock):
        """An open breaker serves a degraded flat window, which the
        backend's key does not name: no key until a probe closes it."""
        service = make_service(SyntheticProvider("DE", seed=5), clock)
        service.intensity_at(HOUR)  # a last-good value to degrade to
        real = service.history(HOUR, DAY)
        key = service.history_range(HOUR, DAY)
        for _ in range(3):
            service.breaker.record_failure()
        assert service.history_range(HOUR, DAY) is None
        assert service.history(HOUR, DAY) != real  # flat last-good window
        clock.advance(30.0)  # half-open: the next request probes
        assert service.history_range(HOUR, DAY) is None
        assert service.history(HOUR, DAY) == real
        assert service.breaker.state is BreakerState.CLOSED
        assert service.history_range(HOUR, DAY) == key

    def test_ensure_never_double_wraps(self, clock):
        service = make_service(StaticProvider(10.0), clock)
        assert CarbonService.ensure(service) is service
        wrapped = CarbonService.ensure(StaticProvider(10.0))
        assert isinstance(wrapped, CarbonService)


class TestCaching:
    def test_repeated_lookup_hits_cache_once_fetched(self, clock):
        backend = FlakyProvider(StaticProvider(99.0))  # counts calls
        service = make_service(backend, clock)
        for _ in range(10):
            assert service.intensity_at(7.0) == 99.0
        assert backend.calls == 1
        snap = service.snapshot()
        assert snap["cache.hits"] == 9
        assert snap["cache.misses"] == 1
        assert snap["backend.calls"] == 1

    def test_signals_cached_independently(self, clock):
        backend = FlakyProvider(SyntheticProvider("DE", seed=0))
        service = make_service(backend, clock)
        service.intensity_at(HOUR)
        service.average_intensity_at(HOUR)
        assert backend.calls == 2  # distinct keys, one fetch each

    def test_quantization_collapses_a_window_to_one_fetch(self, clock):
        backend = FlakyProvider(StaticProvider(50.0))
        service = make_service(backend, clock, quantize_s=300.0)
        for t in np.linspace(600.0, 899.0, 20):  # all in [600, 900)
            service.intensity_at(float(t))
        assert backend.calls == 1
        assert service.intensity_at(900.0) == 50.0  # next window: new fetch
        assert backend.calls == 2

    def test_history_is_never_cached(self, clock):
        backend = FlakyProvider(SyntheticProvider("DE", seed=0))
        service = make_service(backend, clock)
        a = service.history(0.0, DAY)
        b = service.history(0.0, DAY)
        np.testing.assert_array_equal(a.values, b.values)
        assert backend.calls == 2  # one guarded backend call each
        assert len(service.cache) == 0
        snap = service.snapshot()
        assert snap["backend.calls"] == 2
        assert "cache.misses" not in snap  # history is not a cache lookup


    def test_history_memo_sits_below_the_service(self, clock):
        """Every history request is one backend call and one fault draw,
        failed or not, also while the sample range is unchanged: reuse
        of a held window sits with the consumer, not in the service."""
        backend = FlakyProvider(SyntheticProvider("DE", seed=0),
                                failure_rate=0.5, seed=4)
        service = make_service(
            backend, clock, fallback=StaticProvider(300.0),
            breaker=CircuitBreaker(failure_threshold=100, clock=clock))
        raw = SyntheticProvider("DE", seed=0)
        draws = np.random.default_rng(4)
        failed = 0
        for k in range(16):
            t1 = DAY + k * 900.0  # four requests per sample bin
            fails = float(draws.random()) < 0.5
            failed += fails
            h = service.history(t1 - 6 * HOUR, t1)
            assert backend.calls == k + 1
            assert backend.failures == failed
            if fails:
                assert set(h.values) == {300.0}  # from the fallback
                continue
            assert h == raw.history(t1 - 6 * HOUR, t1)
        assert 0 < failed < 16
        snap = service.snapshot()
        assert snap["backend.calls"] == 16 - failed
        assert snap["backend.failures"] == failed
        assert snap["degraded.fallback"] == failed


class TestCoalescing:
    def test_burst_of_duplicates_is_one_backend_call(self, clock):
        backend = FlakyProvider(StaticProvider(10.0))
        service = make_service(backend, clock, quantize_s=300.0)
        times = [100.0, 150.0, 299.0] * 50  # one quantization window
        values = service.batch_intensity(times)
        assert values.shape == (150,)
        assert np.all(values == 10.0)
        assert backend.calls == 1
        snap = service.snapshot()
        assert snap["coalesce.fetches"] == 1
        assert snap["coalesce.deduplicated"] == 149

    def test_batch_mixes_cache_hits_and_fetches(self, clock):
        backend = FlakyProvider(StaticProvider(10.0))
        service = make_service(backend, clock)
        service.intensity_at(1.0)  # pre-warm one key
        out = service.batch_intensity([1.0, 2.0, 2.0, 3.0])
        assert out.tolist() == [10.0, 10.0, 10.0, 10.0]
        assert backend.calls == 3  # keys 1 (warm), 2, 3
        assert service.snapshot()["coalesce.fetches"] == 2

    def test_batch_average_signal(self, clock):
        backend = SyntheticProvider("DE", seed=1)
        service = make_service(SyntheticProvider("DE", seed=1), clock)
        out = service.batch_intensity([HOUR, HOUR], signal="average")
        assert out[0] == backend.average_intensity_at(HOUR)

    def test_unknown_signal_rejected(self, clock):
        service = make_service(StaticProvider(1.0), clock)
        with pytest.raises(ValueError, match="signal"):
            service.batch_intensity([0.0], signal="spot")


class TestDegradation:
    """The acceptance-critical paths: the breaker opens at its threshold,
    queries degrade to last-good/fallback values (never raise), and the
    breaker half-opens and recovers."""

    def test_breaker_opens_after_configured_threshold(self, clock):
        backend = FlakyProvider(StaticProvider(80.0), fail_all=True)
        service = make_service(backend, clock,
                               fallback=StaticProvider(300.0))
        for i in range(5):
            service.intensity_at(float(i))
        # exactly `failure_threshold` requests reached the backend, the
        # rest were refused by the open circuit
        assert service.breaker.state is BreakerState.OPEN
        assert backend.calls == 3
        assert service.snapshot()["backend.failures"] == 3

    def test_degrades_to_last_good_for_unseen_key(self, clock):
        backend = FlakyProvider(StaticProvider(80.0))
        service = make_service(backend, clock)
        service.intensity_at(0.0)
        backend.fail_all = True
        # a *different* time: no cache entry, falls to last-good
        assert service.intensity_at(999.0) == 80.0
        assert service.snapshot()["degraded.last_good"] >= 1

    def test_degrades_to_fallback_provider_cold(self, clock):
        backend = FlakyProvider(StaticProvider(80.0), fail_all=True)
        service = make_service(backend, clock,
                               fallback=StaticProvider(20.0, "LRZ"))
        # cold cache, no last-good: straight to the fallback
        assert service.intensity_at(0.0) == 20.0
        assert service.average_intensity_at(0.0) == 20.0
        assert service.snapshot()["degraded.fallback"] == 2

    def test_degraded_history_from_fallback(self, clock):
        backend = FlakyProvider(SyntheticProvider("DE", seed=0),
                                fail_all=True)
        service = make_service(backend, clock,
                               fallback=StaticProvider(20.0))
        h = service.history(0.0, DAY)
        assert h.mean() == pytest.approx(20.0)

    def test_degradation_order_per_lookup_kind(self, clock):
        """With both tiers available, a spot lookup takes the last-good
        value first and a history window takes the fallback first."""
        backend = FlakyProvider(StaticProvider(80.0))
        service = make_service(backend, clock,
                               fallback=StaticProvider(20.0))
        service.intensity_at(0.0)  # last-good marginal value: 80
        backend.fail_all = True
        assert service.intensity_at(999.0) == 80.0
        assert service.history(0.0, 6 * HOUR).mean() == pytest.approx(20.0)
        snap = service.snapshot()
        assert snap["degraded.last_good"] == 1
        assert snap["degraded.fallback"] == 1

    def test_degraded_history_from_last_good_constant(self, clock):
        backend = FlakyProvider(StaticProvider(80.0))
        service = make_service(backend, clock)
        service.intensity_at(0.0)
        backend.fail_all = True
        h = service.history(0.0, 6 * HOUR)
        assert h.mean() == pytest.approx(80.0)
        assert h.duration == pytest.approx(6 * HOUR)

    def test_raises_only_when_every_tier_is_empty(self, clock):
        backend = FlakyProvider(StaticProvider(80.0), fail_all=True)
        service = make_service(backend, clock)  # no fallback, cold cache
        with pytest.raises(ServiceUnavailableError):
            service.intensity_at(0.0)
        with pytest.raises(ServiceUnavailableError):
            service.history(0.0, HOUR)

    def test_batch_raises_only_when_every_tier_is_empty(self, clock):
        backend = FlakyProvider(StaticProvider(80.0), fail_all=True)
        service = make_service(backend, clock)  # no fallback, cold cache
        with pytest.raises(ServiceUnavailableError):
            service.batch_intensity([0.0, HOUR, 0.0])

    def test_queries_never_raise_with_fallback_under_flaky_backend(
            self, clock):
        backend = FlakyProvider(SyntheticProvider("DE", seed=0),
                                failure_rate=0.5, seed=1)
        service = make_service(backend, clock,
                               fallback=StaticProvider(300.0))
        rng = np.random.default_rng(0)
        for _ in range(300):
            t = float(rng.uniform(0.0, 2 * DAY))
            v = service.intensity_at(t)
            assert v >= 0.0  # every query answered, none raised

    def test_breaker_half_opens_and_recovers(self, clock):
        backend = FlakyProvider(StaticProvider(80.0), fail_all=True)
        service = make_service(backend, clock,
                               fallback=StaticProvider(300.0))
        # trip the breaker (threshold 3)
        for i in range(4):
            service.intensity_at(float(i))
        assert service.breaker.state is BreakerState.OPEN
        assert service.intensity_at(50.0) == 300.0  # refused -> fallback

        backend.fail_all = False          # the backend heals
        clock.advance(30.0)               # cooldown elapses
        assert service.breaker.state is BreakerState.HALF_OPEN
        # the half-open probe goes through, succeeds, closes the circuit
        assert service.intensity_at(60.0) == 80.0
        assert service.breaker.state is BreakerState.CLOSED
        # service is fully back: fresh keys fetch from the backend again
        assert service.intensity_at(61.0) == 80.0

    def test_failed_probe_reopens(self, clock):
        backend = FlakyProvider(StaticProvider(80.0), fail_all=True)
        service = make_service(backend, clock,
                               fallback=StaticProvider(300.0))
        for i in range(3):
            service.intensity_at(float(i))
        calls_when_open = backend.calls
        clock.advance(30.0)  # half-open
        assert service.intensity_at(50.0) == 300.0  # probe fails -> fallback
        assert backend.calls == calls_when_open + 1
        assert service.breaker.state is BreakerState.OPEN
        # straight back to refusing without touching the backend
        service.intensity_at(51.0)
        assert backend.calls == calls_when_open + 1

    def test_degraded_values_are_not_cached_as_fresh(self, clock):
        backend = FlakyProvider(StaticProvider(80.0), fail_all=True)
        service = make_service(backend, clock,
                               fallback=StaticProvider(300.0))
        assert service.intensity_at(0.0) == 300.0
        backend.fail_all = False
        service.breaker.record_success()  # force the circuit closed
        # the real value is served as soon as the backend is back — the
        # fallback answer did not poison the cache
        assert service.intensity_at(0.0) == 80.0


class TestIntegralDegradation:
    """``integrate_intensity`` (what accrual charges each step with)
    degrades in the same order as ``history``: the fallback's integral,
    then the last-good value held flat, then an error."""

    def test_fallback_integral(self, clock):
        backend = FlakyProvider(SyntheticProvider("DE", seed=0),
                                fail_all=True)
        fallback = StaticProvider(20.0)
        service = make_service(backend, clock, fallback=fallback)
        assert service.integrate_intensity(HOUR, 7.5 * HOUR) == \
            fallback.integrate_intensity(HOUR, 7.5 * HOUR)
        assert service.snapshot()["degraded.fallback"] == 1

    def test_last_good_value_held_flat(self, clock):
        backend = FlakyProvider(StaticProvider(80.0))
        service = make_service(backend, clock)
        service.intensity_at(0.0)
        backend.fail_all = True
        assert service.integrate_intensity(0.5 * HOUR, 6 * HOUR) == \
            80.0 * (6 * HOUR - 0.5 * HOUR)
        assert service.snapshot()["degraded.last_good"] == 1

    def test_raises_only_when_every_tier_is_empty(self, clock):
        backend = FlakyProvider(StaticProvider(80.0), fail_all=True)
        service = make_service(backend, clock)  # no fallback, cold cache
        with pytest.raises(ServiceUnavailableError):
            service.integrate_intensity(0.0, HOUR)

    @pytest.mark.parametrize("fallback", [None, StaticProvider(20.0)])
    def test_breaker_and_counters_move_as_for_history(self, clock,
                                                      fallback):
        """The same call sequence through ``history`` and through
        ``integrate_intensity`` moves breaker and counters alike:
        a warm-up, an outage that trips the breaker, refused calls, a
        cooldown and a failed probe, then a heal and a good probe."""
        def run(call):
            clock.now = 0.0
            backend = FlakyProvider(StaticProvider(80.0))
            service = make_service(backend, clock, fallback=fallback)
            service.intensity_at(0.0)
            states = []
            for step in ("call", "down", "call", "call", "call", "call",
                         "cool", "call", "cool", "up", "call", "call"):
                if step == "down":
                    backend.fail_all = True
                elif step == "up":
                    backend.fail_all = False
                elif step == "cool":
                    clock.advance(30.0)
                else:
                    call(service, 0.0, 2 * HOUR)
                states.append((service.breaker.state, backend.calls,
                               service.snapshot()))
            return states

        by_history = run(lambda s, t0, t1: s.history(t0, t1))
        by_integral = run(lambda s, t0, t1: s.integrate_intensity(t0, t1))
        assert by_integral == by_history
        final = by_integral[-1][2]
        assert final["backend.failures"] == 4
        assert final["degraded.fallback" if fallback else
                     "degraded.last_good"] == 5

    def test_one_backend_call_per_integral(self, clock):
        """A flaky backend sees one request per integral, failed or not
        (no retries, and the breaker stays closed)."""
        backend = FlakyProvider(SyntheticProvider("DE", seed=0),
                                failure_rate=0.5, seed=3)
        service = make_service(
            backend, clock, fallback=StaticProvider(300.0),
            breaker=CircuitBreaker(failure_threshold=100, clock=clock))
        for k in range(8):
            service.integrate_intensity(k * HOUR, (k + 2.5) * HOUR)
            assert backend.calls == k + 1
        assert 0 < backend.failures < 8
        bare = FlakyProvider(SyntheticProvider("DE", seed=0))
        bare.integrate_intensity(0.0, 3.5 * HOUR)
        assert bare.calls == 1


class TestRetryIntegration:
    def test_transient_flake_absorbed_by_retries(self, clock):
        trace = CarbonIntensityTrace(np.full(48, 123.0), HOUR)
        backend = FlakyProvider(TraceProvider(trace), failure_rate=0.3,
                                seed=2)
        service = CarbonService(
            backend, retry=RetryPolicy(max_attempts=5, base_delay_s=0.0),
            clock=clock, sleep=lambda _s: None)
        for t in range(20):
            assert service.intensity_at(t * HOUR) == 123.0
        assert service.snapshot().get("backend.retries", 0) > 0
        assert service.snapshot().get("backend.failures", 0) == 0


class TestSchedulerNeverSeesAnError:
    """The end-to-end guarantee: a full RJMS simulation over a flaky
    backend completes, with every intensity query degraded rather than
    raised into the scheduler."""

    def test_simulation_completes_over_flaky_backend(self, clock):
        from repro.scheduler import RJMS, CarbonBackfillPolicy
        from repro.simulator import (
            Cluster,
            ComponentPowerModel,
            NodePowerModel,
            WorkloadConfig,
            WorkloadGenerator,
        )

        pm = NodePowerModel(cpus=(ComponentPowerModel("cpu", 50, 240),) * 2)
        jobs = WorkloadGenerator(
            WorkloadConfig(n_jobs=20, max_nodes_log2=2), seed=0).generate()
        backend = FlakyProvider(SyntheticProvider("DE", seed=0),
                                failure_rate=0.4, seed=9)
        service = CarbonService(
            backend,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            breaker=CircuitBreaker(failure_threshold=5, recovery_s=1.0),
            fallback=StaticProvider(350.0, "DE-fallback"),
            sleep=lambda _s: None)
        result = RJMS(Cluster(4, pm), jobs, CarbonBackfillPolicy(),
                      provider=service).run()
        assert all(j.end_time is not None for j in result.jobs)
        assert result.total_carbon_kg >= 0.0
        snap = service.snapshot()
        # the serving layer actually served, and degraded some failures
        assert snap.get("backend.calls", 0) > 0
        assert snap.get("degraded.last_good", 0) \
            + snap.get("degraded.fallback", 0) > 0
