"""Tests for the TTL+LRU cache and its accounting."""

import pytest

from repro.service import MISSING, MetricsRegistry, TTLLRUCache


class TestBasics:
    def test_miss_then_hit(self, clock):
        c = TTLLRUCache(clock=clock)
        assert c.get("k") is MISSING
        c.put("k", 42.0)
        assert c.get("k") == 42.0
        assert c.metrics.counter("cache.misses").value == 1
        assert c.metrics.counter("cache.hits").value == 1

    def test_distinguishes_cached_falsy_values(self, clock):
        c = TTLLRUCache(clock=clock)
        c.put("zero", 0.0)
        assert c.get("zero") == 0.0
        assert c.get("zero") is not MISSING

    def test_len_and_contains(self, clock):
        c = TTLLRUCache(clock=clock)
        c.put("a", 1)
        assert len(c) == 1 and "a" in c and "b" not in c

    def test_validation(self):
        with pytest.raises(ValueError):
            TTLLRUCache(max_entries=0)
        with pytest.raises(ValueError):
            TTLLRUCache(ttl_s=0.0)


class TestLRU:
    def test_capacity_evicts_least_recently_used(self, clock):
        c = TTLLRUCache(max_entries=2, clock=clock)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")        # refresh a: b is now LRU
        c.put("c", 3)
        assert "b" not in c
        assert c.get("a") == 1 and c.get("c") == 3
        assert c.metrics.counter("cache.evictions").value == 1

    def test_put_refresh_does_not_grow(self, clock):
        c = TTLLRUCache(max_entries=2, clock=clock)
        c.put("a", 1)
        c.put("a", 2)
        assert len(c) == 1 and c.get("a") == 2

    def test_size_gauge_tracks(self, clock):
        c = TTLLRUCache(max_entries=8, clock=clock)
        for i in range(5):
            c.put(i, i)
        assert c.metrics.gauge("cache.size").value == 5


class TestTTL:
    def test_expired_entry_misses_but_stays_stale_readable(self, clock):
        c = TTLLRUCache(ttl_s=10.0, clock=clock)
        c.put("k", 42.0)
        clock.advance(10.0)
        assert c.get("k") is MISSING
        assert c.metrics.counter("cache.expirations").value == 1
        # the degraded path can still read it
        assert c.get_stale("k") == 42.0

    def test_fresh_within_ttl(self, clock):
        c = TTLLRUCache(ttl_s=10.0, clock=clock)
        c.put("k", 42.0)
        clock.advance(9.99)
        assert c.get("k") == 42.0

    def test_no_ttl_never_expires(self, clock):
        c = TTLLRUCache(ttl_s=None, clock=clock)
        c.put("k", 1.0)
        clock.advance(1e9)
        assert c.get("k") == 1.0

    def test_get_stale_missing_key(self, clock):
        assert TTLLRUCache(clock=clock).get_stale("nope") is MISSING


class TestAccounting:
    def test_hit_rate(self, clock):
        c = TTLLRUCache(clock=clock)
        assert c.hit_rate == 0.0
        c.put("k", 1)
        c.get("k")
        c.get("k")
        c.get("other")
        assert c.hit_rate == pytest.approx(2 / 3)

    def test_shared_registry(self, clock):
        m = MetricsRegistry()
        c = TTLLRUCache(clock=clock, metrics=m)
        c.get("miss")
        assert m.counter("cache.misses").value == 1
