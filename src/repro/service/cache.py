"""TTL+LRU query cache for the carbon-data serving layer.

Keys are whatever the service derives from a query — canonically
``(zone, signal, quantized_time)`` for spot lookups and
``(zone, "history", t0, t1)`` for windows.  Two properties matter for
the degradation story and are therefore explicit API:

* **expiry is lazy and non-destructive** — an entry past its TTL stops
  being served by :meth:`get` but stays addressable via
  :meth:`get_stale` until LRU capacity evicts it, so a service whose
  backend just tripped can keep answering with the last known value
  ("stale-while-error", the standard CDN trick);
* **every outcome is counted** — hits, misses, expirations, evictions —
  through the shared :class:`~repro.obs.registry.MetricsRegistry`, so
  benchmark assertions can match observed behavior exactly.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional, Tuple

from repro.obs.registry import MetricsRegistry

__all__ = ["TTLLRUCache", "MISSING"]

#: sentinel distinguishing "no entry" from a cached ``None``/0.0
MISSING = object()


class TTLLRUCache:
    """Bounded mapping with per-entry TTL and least-recently-used eviction.

    Parameters
    ----------
    max_entries:
        LRU capacity; inserting beyond it evicts the least recently
        *used* entry (stale entries included).
    ttl_s:
        Entry lifetime in seconds against ``clock``; ``None`` means
        entries never expire (the right setting when the backend is
        deterministic, as the repro's offline providers are).
    clock:
        Monotonic time source; injectable so tests can age entries
        without sleeping.
    metrics:
        Shared registry; counters land under ``cache.*``.
    """

    def __init__(self, max_entries: int = 4096,
                 ttl_s: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None for no expiry)")
        self.max_entries = int(max_entries)
        self.ttl_s = None if ttl_s is None else float(ttl_s)
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: key -> (value, stored_at); insertion/access order = LRU order
        self._entries: "OrderedDict[Hashable, Tuple[Any, float]]" = \
            OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def _expired(self, stored_at: float) -> bool:
        return (self.ttl_s is not None
                and self.clock() - stored_at >= self.ttl_s)

    # -- core API ---------------------------------------------------------------

    def get(self, key: Hashable) -> Any:
        """Fresh value for ``key``, or :data:`MISSING` (counted)."""
        entry = self._entries.get(key)
        if entry is None:
            self.metrics.counter("cache.misses").inc()
            return MISSING
        value, stored_at = entry
        if self._expired(stored_at):
            self.metrics.counter("cache.misses").inc()
            self.metrics.counter("cache.expirations").inc()
            return MISSING
        self._entries.move_to_end(key)
        self.metrics.counter("cache.hits").inc()
        return value

    def get_stale(self, key: Hashable) -> Any:
        """Value for ``key`` *ignoring TTL* (degraded reads), else
        :data:`MISSING`.  Does not touch hit/miss accounting — the miss
        was already counted by the :meth:`get` that preceded it."""
        entry = self._entries.get(key)
        return MISSING if entry is None else entry[0]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``; evicts LRU entries over capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (value, self.clock())
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.metrics.counter("cache.evictions").inc()
        self.metrics.gauge("cache.size").set(len(self._entries))

    def clear(self) -> None:
        self._entries.clear()
        self.metrics.gauge("cache.size").set(0)

    # -- introspection -----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hits / (hits + misses) over the cache's lifetime; 0 if unused."""
        hits = self.metrics.counter("cache.hits").value
        misses = self.metrics.counter("cache.misses").value
        total = hits + misses
        return hits / total if total else 0.0
