"""Tests for the discrete-event engine of the event-driven reference
simulator (``reference_cluster``)."""

import pytest

from reference_cluster import SimulationEngine
from repro.errors import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(5.0, lambda: fired.append("b"))
        engine.schedule_at(1.0, lambda: fired.append("a"))
        engine.run()
        assert fired == ["a", "b"]

    def test_equal_times_fire_in_schedule_order(self):
        engine = SimulationEngine()
        fired = []
        for name in "abc":
            engine.schedule_at(1.0, lambda n=name: fired.append(n))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(7.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [7.5]

    def test_schedule_after(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(2.0, lambda: engine.schedule_after(3.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [5.0]

    def test_scheduling_in_past_raises(self):
        engine = SimulationEngine()
        engine.schedule_at(10.0, lambda: engine.schedule_at(5.0, lambda: None))
        with pytest.raises(SimulationError, match="clock"):
            engine.run()

    def test_negative_delay_raises(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_after(-1.0, lambda: None)


class TestRun:
    def test_run_until_leaves_future_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(10.0, lambda: fired.append(10))
        count = engine.run(until=5.0)
        assert count == 1
        assert fired == [1]
        assert engine.pending == 1
        assert engine.now == 5.0

    def test_run_continues_after_until(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        engine.run()
        assert fired == [10]

    def test_cascading_events(self):
        engine = SimulationEngine()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                engine.schedule_after(1.0, lambda: chain(depth + 1))

        engine.schedule_at(0.0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]

    def test_max_events_guard(self):
        engine = SimulationEngine()

        def forever():
            engine.schedule_after(1.0, forever)

        engine.schedule_at(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(max_events=10)

    def test_processed_counter(self):
        engine = SimulationEngine()
        for t in range(5):
            engine.schedule_at(float(t), lambda: None)
        engine.run()
        assert engine.processed == 5

    def test_reentrant_run_rejected(self):
        engine = SimulationEngine()

        def nested():
            engine.run()

        engine.schedule_at(0.0, nested)
        with pytest.raises(SimulationError, match="reentrant"):
            engine.run()
