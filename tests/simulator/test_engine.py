"""Tests for the discrete-event engine."""

import pytest

from repro.simulator import SimulationEngine


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
