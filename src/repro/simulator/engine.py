"""Discrete-event simulation engine.

A minimal, deterministic event loop: each event is the tuple ``(time,
priority, seq)``, ordered in a binary heap by C tuple comparison; ``seq``
is a per-engine insertion counter, so ties fire in scheduling order.
Cancellation is lazy — cancelled events stay in the heap and are
skipped on pop — which keeps ``cancel`` O(1); rescheduling
job-completion events (the common case under power-cap changes) is
cancel + schedule.

The engine knows nothing about jobs or power; higher layers
(:mod:`repro.scheduler.rjms`, :mod:`repro.powerstack.site`) drive it.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import time
from typing import Callable, List, Optional

from repro import obs

__all__ = ["Event", "SimulationEngine"]


class Event(tuple):
    """A scheduled callback: the tuple ``(time, priority, seq)``."""

    time = property(operator.itemgetter(0))
    priority = property(operator.itemgetter(1))
    seq = property(operator.itemgetter(2))

    def __new__(cls, time: float, priority: int, seq: int,
                callback: Callable[[], None], label: str = "") -> "Event":
        ev = tuple.__new__(cls, (time, priority, seq))
        ev.callback, ev.label, ev.cancelled = callback, label, False
        return ev

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True


class SimulationEngine:
    """Deterministic discrete-event loop.

    Parameters
    ----------
    start_time:
        Initial simulation clock (seconds).

    Notes
    -----
    Priorities order same-instant events: lower fires first.  The
    conventional layering is: completions (0) before scheduler ticks (5)
    before power-management ticks (7) before arrivals (3) — but callers
    choose their own; the engine only guarantees determinism.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self._processed = 0

    # -- scheduling -----------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[[], None],
                    priority: int = 5, label: str = "") -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self.now - 1e-9:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self.now}")
        ev = Event(max(time, self.now), priority, next(self._seq),
                   callback, label)
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_in(self, delay: float, callback: Callable[[], None],
                    priority: int = 5, label: str = "") -> Event:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.now + delay, callback, priority, label)

    # -- execution --------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for e in self._heap if not e.cancelled)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is drained."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Execute the next live event. Returns False if none remained."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            if ev[0] < self.now - 1e-9:
                raise RuntimeError("event queue corrupted: time went backwards")
            self.now = ev[0]
            self._processed += 1
            ev.callback()
            return True
        return False

    def run_until(self, t_end: float, max_events: int = 10_000_000) -> None:
        """Run events with ``time <= t_end``; the clock ends at ``t_end``.

        ``max_events`` guards against runaway self-rescheduling loops.
        """
        if t_end < self.now:
            raise ValueError("t_end is in the past")
        executed = 0
        with obs.span("sim.run_until",
                      attrs={"t_end": t_end}) as span:
            t0 = time.perf_counter()
            while True:
                nxt = self.peek_time()
                if nxt is None or nxt > t_end:
                    break
                if not self.step():
                    break
                executed += 1
                if executed > max_events:
                    raise RuntimeError(
                        f"exceeded {max_events} events before t_end; "
                        "likely a self-rescheduling loop")
            self.now = t_end
            self._profile(span, executed, time.perf_counter() - t0)

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains."""
        executed = 0
        with obs.span("sim.run") as span:
            t0 = time.perf_counter()
            while self.step():
                executed += 1
                if executed > max_events:
                    raise RuntimeError(f"exceeded {max_events} events")
            self._profile(span, executed, time.perf_counter() - t0)

    def _profile(self, span, executed: int, elapsed_s: float) -> None:
        """Events/sec + queue-depth profiling; only runs while the
        observability layer is enabled (``span`` is then a real handle,
        and the O(heap) ``pending`` scan is worth paying)."""
        if not obs.enabled():
            return
        span.set_attr("events", executed)
        span.set_attr("events_per_s",
                      executed / elapsed_s if elapsed_s > 0 else 0.0)
        reg = obs.metrics()
        reg.counter("sim.events").inc(executed)
        reg.gauge("sim.queue_depth").set(self.pending)
        reg.gauge("sim.clock_s").set(self.now)
