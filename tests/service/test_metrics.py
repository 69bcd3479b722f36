"""Tests for the metrics registry behind ``repro service stats``."""

import pytest

from repro.obs import MetricsRegistry


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
