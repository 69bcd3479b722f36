"""Bounded LRU query cache for the carbon-data serving layer.

Keys are whatever the service derives from a spot query —
``(zone, signal, quantized_time)``.  Entries never expire: the repro's
providers are deterministic, so a cached value stays correct until LRU
capacity evicts it.  Every outcome (hits, misses, evictions) is counted
through the shared :class:`~repro.obs.registry.MetricsRegistry`, so
benchmark assertions can match observed behavior exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional

from repro.obs.registry import MetricsRegistry

__all__ = ["LRUCache", "MISSING"]

#: sentinel distinguishing "no entry" from a cached ``None``/0.0
MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    Parameters
    ----------
    max_entries:
        LRU capacity; inserting beyond it evicts the least recently
        *used* entry.
    metrics:
        Shared registry; counters land under ``cache.*``.
    """

    def __init__(self, max_entries: int = 4096,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: insertion/access order = LRU order
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    # -- core API ---------------------------------------------------------------

    def get(self, key: Hashable) -> Any:
        """Value for ``key``, or :data:`MISSING` (counted)."""
        value = self._entries.get(key, MISSING)
        if value is MISSING:
            self.metrics.counter("cache.misses").inc()
            return MISSING
        self._entries.move_to_end(key)
        self.metrics.counter("cache.hits").inc()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``; evicts LRU entries over capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.metrics.counter("cache.evictions").inc()
        self.metrics.gauge("cache.size").set(len(self._entries))

    # -- introspection -----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits / (hits + misses) over the cache's lifetime; 0 if unused."""
        hits = self.metrics.counter("cache.hits").value
        misses = self.metrics.counter("cache.misses").value
        total = hits + misses
        return hits / total if total else 0.0
