"""Metrics registry: labels, gauge deltas, Prometheus exposition."""

import re

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)

#: Prometheus text-exposition line format (v0.0.4): a ``# TYPE`` header
#: or one ``name{labels} value`` sample; nothing else is allowed.
PROM_TYPE_RE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")
PROM_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" -?(\d+(\.\d+)?([eE][-+]?\d+)?|\+Inf)$")


class TestCreateOnUse:
    def test_same_name_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        hit = reg.counter("cache.req", labels={"outcome": "hit"})
        miss = reg.counter("cache.req", labels={"outcome": "miss"})
        assert hit is not miss
        assert hit is reg.counter("cache.req", labels={"outcome": "hit"})
        hit.inc(3)
        miss.inc()
        snap = reg.snapshot()
        assert snap['cache.req{outcome="hit"}'] == 3
        assert snap['cache.req{outcome="miss"}'] == 1

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.gauge("g", labels={"x": "1", "y": "2"})
        b = reg.gauge("g", labels={"y": "2", "x": "1"})
        assert a is b


class TestGaugeDeltas:
    """Satellite: Gauge.inc/dec for delta-tracking call sites."""

    def test_inc_dec_default_step(self):
        g = Gauge("queue.depth")
        g.inc()
        g.inc()
        g.dec()
        assert g.value == 1.0

    def test_inc_dec_with_amount_and_set_interplay(self):
        g = Gauge("fill")
        g.set(10.0)
        g.inc(2.5)
        g.dec(0.5)
        assert g.value == 12.0
        g.set(0.0)
        assert g.value == 0.0

    def test_gauge_may_go_negative(self):
        g = Gauge("delta")
        g.dec(3.0)
        assert g.value == -3.0

    def test_counter_stays_monotonic(self):
        c = Counter("events")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestHistogram:
    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            LatencyHistogram("h", bounds_s=[0.2, 0.1])
        with pytest.raises(ValueError):
            LatencyHistogram("h", bounds_s=[])

    def test_observe_and_quantile(self):
        h = LatencyHistogram("h", bounds_s=[0.001, 0.01, 0.1])
        for v in (0.0005, 0.0005, 0.005, 0.05):
            h.observe(v)
        assert h.count == 4
        assert h.quantile_s(0.5) == 0.001
        assert h.quantile_s(1.0) == 0.1
        assert h.mean_s == pytest.approx(0.014)


class TestPrometheusExposition:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("sim.events").inc(42)
        reg.counter("cache.req", labels={"outcome": "hit"}).inc(7)
        reg.counter("cache.req", labels={"outcome": "miss"}).inc(2)
        reg.gauge("sim.queue-depth").set(3)
        h = reg.histogram("call.latency_s", bounds_s=[0.01, 0.1])
        h.observe(0.005)
        h.observe(0.05)
        h.observe(5.0)
        return reg

    def test_every_line_matches_the_line_format(self):
        text = self._populated().render_prometheus(prefix="repro")
        lines = [ln for ln in text.splitlines() if ln]
        assert lines, "empty exposition"
        for ln in lines:
            assert PROM_TYPE_RE.match(ln) or PROM_SAMPLE_RE.match(ln), (
                f"invalid Prometheus line: {ln!r}")

    def test_type_headers_and_name_mapping(self):
        text = self._populated().render_prometheus(prefix="repro")
        assert "# TYPE repro_sim_events counter" in text
        assert "# TYPE repro_sim_queue_depth gauge" in text  # dots+dashes
        assert "# TYPE repro_call_latency_s histogram" in text
        assert "repro_sim_events 42" in text

    def test_labeled_series_share_one_family(self):
        text = self._populated().render_prometheus()
        assert text.count("# TYPE cache_req counter") == 1
        assert 'cache_req{outcome="hit"} 7' in text
        assert 'cache_req{outcome="miss"} 2' in text

    def test_histogram_buckets_are_cumulative(self):
        text = self._populated().render_prometheus()
        buckets = re.findall(
            r'call_latency_s_bucket\{le="([^"]+)"\} (\d+)', text)
        assert [b[0] for b in buckets] == ["0.01", "0.1", "+Inf"]
        counts = [int(b[1]) for b in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert counts[-1] == 3  # +Inf bucket equals total count
        assert "call_latency_s_count 3" in text
        assert re.search(r"call_latency_s_sum 5\.055", text)

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_table_rendering_still_works(self):
        reg = self._populated()
        table = reg.render()
        assert "sim.events" in table
        assert "call.latency_s.p95_s" in table
