"""Tests for the service metrics registry."""

import warnings

import pytest

from repro.obs import registry as obs_registry
from repro.service import Counter, Gauge, LatencyHistogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_and_read(self):
        g = Gauge("x")
        g.set(3.5)
        assert g.value == 3.5
        g.set(-1.0)
        assert g.value == -1.0

    def test_inc_and_dec(self):
        g = Gauge("x")
        g.inc()
        g.inc(2.5)
        assert g.value == 3.5
        g.dec()
        g.dec(0.5)
        assert g.value == 2.0

    def test_inc_dec_compose_with_set(self):
        g = Gauge("x")
        g.set(10.0)
        g.dec(15.0)
        assert g.value == -5.0  # gauges may go negative
        g.inc(5.0)
        assert g.value == 0.0


class TestLatencyHistogram:
    def test_count_and_mean(self):
        h = LatencyHistogram("lat")
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        assert h.count == 3
        assert h.mean_s == pytest.approx(0.002)

    def test_quantile_is_conservative_bucket_bound(self):
        h = LatencyHistogram("lat", bounds_s=[0.001, 0.01, 0.1])
        for _ in range(99):
            h.observe(0.0005)  # first bucket
        h.observe(0.05)        # third bucket
        assert h.quantile_s(0.5) == 0.001
        assert h.quantile_s(1.0) == 0.1

    def test_overflow_bucket(self):
        h = LatencyHistogram("lat", bounds_s=[0.001])
        h.observe(5.0)
        assert h.quantile_s(1.0) == float("inf")

    def test_empty_quantile_is_zero(self):
        assert LatencyHistogram("lat").quantile_s(0.99) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            LatencyHistogram("lat", bounds_s=[0.1, 0.1])
        with pytest.raises(ValueError):
            LatencyHistogram("lat").observe(-1.0)
        with pytest.raises(ValueError):
            LatencyHistogram("lat").quantile_s(1.5)


class TestMetricsRegistry:
    def test_create_on_use_is_idempotent(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")
        assert m.gauge("b") is m.gauge("b")
        assert m.histogram("c") is m.histogram("c")

    def test_snapshot_flattens_everything(self):
        m = MetricsRegistry()
        m.counter("cache.hits").inc(7)
        m.gauge("breaker.state").set(2.0)
        m.histogram("backend.latency").observe(0.01)
        snap = m.snapshot()
        assert snap["cache.hits"] == 7
        assert snap["breaker.state"] == 2.0
        assert snap["backend.latency.count"] == 1
        assert snap["backend.latency.mean_s"] == pytest.approx(0.01)

    def test_render_contains_every_metric(self):
        m = MetricsRegistry()
        m.counter("cache.hits").inc()
        m.gauge("cache.size").set(1)
        text = m.render()
        assert "cache.hits" in text and "cache.size" in text

    def test_package_level_import_is_warning_free(self):
        """``from repro.service import Counter`` re-exports the obs
        registry classes without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.service import Counter, MetricsRegistry
        assert Counter is obs_registry.Counter
        assert MetricsRegistry is obs_registry.MetricsRegistry
