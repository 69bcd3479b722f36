"""Tests for the bounded LRU cache and its accounting."""

import pytest

from repro.obs import MetricsRegistry
from repro.service import MISSING, LRUCache


class TestBasics:
    def test_miss_then_hit(self):
        c = LRUCache()
        assert c.get("k") is MISSING
        c.put("k", 42.0)
        assert c.get("k") == 42.0
        assert c.metrics.counter("cache.misses").value == 1
        assert c.metrics.counter("cache.hits").value == 1

    def test_distinguishes_cached_falsy_values(self):
        c = LRUCache()
        c.put("zero", 0.0)
        assert c.get("zero") == 0.0
        assert c.get("zero") is not MISSING

    def test_len_and_contains(self):
        c = LRUCache()
        c.put("a", 1)
        assert len(c) == 1 and "a" in c and "b" not in c

    def test_validation(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)


class TestLRU:
    def test_capacity_evicts_least_recently_used(self):
        c = LRUCache(max_entries=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")        # refresh a: b is now LRU
        c.put("c", 3)
        assert "b" not in c
        assert c.get("a") == 1 and c.get("c") == 3
        assert c.metrics.counter("cache.evictions").value == 1

    def test_put_refresh_does_not_grow(self):
        c = LRUCache(max_entries=2)
        c.put("a", 1)
        c.put("a", 2)
        assert len(c) == 1 and c.get("a") == 2

    def test_size_gauge_tracks(self):
        c = LRUCache(max_entries=8)
        for i in range(5):
            c.put(i, i)
        assert c.metrics.gauge("cache.size").value == 5


class TestAccounting:
    def test_hit_rate(self):
        c = LRUCache()
        assert c.hit_rate == 0.0
        c.put("k", 1)
        c.get("k")
        c.get("k")
        c.get("other")
        assert c.hit_rate == pytest.approx(2 / 3)

    def test_shared_registry(self):
        m = MetricsRegistry()
        c = LRUCache(metrics=m)
        c.get("miss")
        assert m.counter("cache.misses").value == 1
