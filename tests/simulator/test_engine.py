"""Tests for the discrete-event engine."""

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator import Event, SimulationEngine


class TestScheduling:
    def test_runs_in_time_order(self):
        eng = SimulationEngine()
        out = []
        eng.schedule_at(5.0, lambda: out.append("b"))
        eng.schedule_at(1.0, lambda: out.append("a"))
        eng.schedule_at(9.0, lambda: out.append("c"))
        eng.run()
        assert out == ["a", "b", "c"]
        assert eng.now == 9.0

    def test_priority_breaks_time_ties(self):
        eng = SimulationEngine()
        out = []
        eng.schedule_at(1.0, lambda: out.append("low"), priority=9)
        eng.schedule_at(1.0, lambda: out.append("high"), priority=0)
        eng.run()
        assert out == ["high", "low"]

    def test_seq_breaks_full_ties_fifo(self):
        eng = SimulationEngine()
        out = []
        for i in range(5):
            eng.schedule_at(1.0, lambda i=i: out.append(i), priority=5)
        eng.run()
        assert out == [0, 1, 2, 3, 4]

    def test_schedule_in(self):
        eng = SimulationEngine(start_time=100.0)
        fired = []
        eng.schedule_in(5.0, lambda: fired.append(eng.now))
        eng.run()
        assert fired == [105.0]

    def test_rejects_past_schedule(self):
        eng = SimulationEngine(start_time=10.0)
        with pytest.raises(ValueError, match="past"):
            eng.schedule_at(5.0, lambda: None)
        with pytest.raises(ValueError):
            eng.schedule_in(-1.0, lambda: None)

    def test_past_within_1e9_runs_at_now(self):
        """Float round-off up to 1e-9 s behind ``now`` is clamped to
        ``now``; anything further back is an error."""
        eng = SimulationEngine(start_time=10.0)
        fired = []
        ev = eng.schedule_at(10.0 - 1e-9, lambda: fired.append(eng.now))
        assert ev.time == 10.0
        eng.run()
        assert fired == [10.0]
        with pytest.raises(ValueError, match="past"):
            eng.schedule_at(10.0 - 1e-8, lambda: None)

    def test_events_can_schedule_events(self):
        eng = SimulationEngine()
        out = []

        def first():
            out.append("first")
            eng.schedule_in(1.0, lambda: out.append("second"))

        eng.schedule_at(0.0, first)
        eng.run()
        assert out == ["first", "second"]
        assert eng.now == 1.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        eng = SimulationEngine()
        out = []
        ev = eng.schedule_at(1.0, lambda: out.append("x"))
        ev.cancel()
        eng.run()
        assert out == []

    def test_pending_ignores_cancelled(self):
        eng = SimulationEngine()
        ev = eng.schedule_at(1.0, lambda: None)
        eng.schedule_at(2.0, lambda: None)
        assert eng.pending == 2
        ev.cancel()
        assert eng.pending == 1


class TestRunUntil:
    def test_stops_at_horizon(self):
        eng = SimulationEngine()
        out = []
        eng.schedule_at(1.0, lambda: out.append(1))
        eng.schedule_at(10.0, lambda: out.append(10))
        eng.run_until(5.0)
        assert out == [1]
        assert eng.now == 5.0
        assert eng.pending == 1

    def test_boundary_event_included(self):
        eng = SimulationEngine()
        out = []
        eng.schedule_at(5.0, lambda: out.append(5))
        eng.run_until(5.0)
        assert out == [5]

    def test_rejects_past_horizon(self):
        eng = SimulationEngine(start_time=10.0)
        with pytest.raises(ValueError):
            eng.run_until(5.0)

    def test_runaway_loop_guard(self):
        eng = SimulationEngine()

        def rearm():
            eng.schedule_in(0.001, rearm)

        eng.schedule_at(0.0, rearm)
        with pytest.raises(RuntimeError, match="events"):
            eng.run_until(1e12, max_events=1000)

    def test_peek_time(self):
        eng = SimulationEngine()
        assert eng.peek_time() is None
        ev = eng.schedule_at(3.0, lambda: None)
        assert eng.peek_time() == 3.0
        ev.cancel()
        assert eng.peek_time() is None

    def test_processed_counter(self):
        eng = SimulationEngine()
        for t in (1.0, 2.0):
            eng.schedule_at(t, lambda: None)
        eng.run()
        assert eng.processed == 2


@dataclass(order=True)
class RefEvent:
    """The previous event: a dataclass ordered by a Python ``__lt__``
    over ``(time, priority, seq)``."""

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class ReferenceEngine:
    """The engine's schedule/run loop over :class:`RefEvent`."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()

    def schedule_at(self, time, callback, priority=5, label=""):
        ev = RefEvent(max(time, self.now), priority, next(self._seq),
                      callback, label)
        heapq.heappush(self._heap, ev)
        return ev

    def run(self) -> None:
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self.now = ev.time
            ev.callback()


# few distinct times and priorities, so ties in both are common
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
_PRIORITIES = st.sampled_from([0, 3, 5, 7])
#: (time or delay, priority, index of an event to cancel when this one
#: fires, cancelled right after scheduling)
_LEAF = st.tuples(_TIMES, _PRIORITIES, st.none() | st.integers(0, 40),
                  st.booleans())
#: a leaf plus the leaves its callback schedules ``delay`` after it fires
_SPEC = st.tuples(_TIMES, _PRIORITIES, st.none() | st.integers(0, 40),
                  st.booleans(), st.lists(_LEAF, max_size=3))


def play(engine, specs):
    """Drive ``engine`` through ``specs``; return what fired, when."""
    fired, made = [], []

    def add(t, priority, cancel_ix, dead, children, name):
        def fire():
            fired.append((name, engine.now))
            if cancel_ix is not None and cancel_ix < len(made):
                made[cancel_ix].cancel()
            for k, (delay, p, c, x) in enumerate(children):
                add(engine.now + delay, p, c, x, [], f"{name}.{k}")
        ev = engine.schedule_at(t, fire, priority=priority)
        made.append(ev)
        if dead:
            ev.cancel()

    for i, (t, p, c, x, children) in enumerate(specs):
        add(t, p, c, x, children, str(i))
    engine.run()
    return fired, engine.now


class TestTupleEvents:
    """Events are ``(time, priority, seq)`` tuples; the heap must fire
    them in exactly the order the previous dataclass events did."""

    @given(specs=st.lists(_SPEC, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_same_order_as_the_dataclass_heap(self, specs):
        assert play(SimulationEngine(), specs) == \
            play(ReferenceEngine(), specs)

    def test_event_is_its_ordering_tuple(self):
        eng = SimulationEngine()
        ev = eng.schedule_at(2.0, lambda: None, priority=3, label="x")
        assert isinstance(ev, Event) and ev == (2.0, 3, 0)
        assert (ev.time, ev.priority, ev.seq, ev.label) == (2.0, 3, 0, "x")
        assert not ev.cancelled
        # heapq compares with tuple's own C comparison, no Python frame
        assert Event.__lt__ is tuple.__lt__
        with pytest.raises(AttributeError):
            ev.time = 1.0

    def test_reassigned_callback_changes_what_fires(self):
        """A probe may wrap the callbacks of events already queued."""
        eng = SimulationEngine()
        out = []
        eng.schedule_at(1.0, lambda: out.append("old"))
        eng.schedule_at(2.0, lambda: out.append("kept"))
        first = min(eng._heap)
        inner = first.callback
        first.callback = lambda: (out.append("wrapped"), inner())
        eng.run()
        assert out == ["wrapped", "old", "kept"]
