"""Tests for the DES engine: ordering, cancellation, run limits."""

import pytest

from repro.des.engine import Engine
from repro.errors import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        order = []
        eng.schedule(5.0, lambda: order.append("b"))
        eng.schedule(1.0, lambda: order.append("a"))
        eng.schedule(9.0, lambda: order.append("c"))
        eng.run()
        assert order == ["a", "b", "c"]
        assert eng.now == 9.0

    def test_priority_breaks_time_ties(self):
        eng = Engine()
        order = []
        eng.schedule(1.0, lambda: order.append("late"), priority=1)
        eng.schedule(1.0, lambda: order.append("early"), priority=-1)
        eng.run()
        assert order == ["early", "late"]

    def test_fifo_within_same_time_and_priority(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.schedule(1.0, lambda i=i: order.append(i))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_rejects_scheduling_in_past(self):
        eng = Engine()
        eng.schedule(5.0, lambda: eng.schedule(1.0, lambda: None))
        with pytest.raises(SimulationError, match="before current time"):
            eng.run()

    def test_rejects_nan_time(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="NaN"):
            eng.schedule(float("nan"), lambda: None)

    def test_schedule_after(self):
        eng = Engine()
        seen = []
        eng.schedule(3.0, lambda: eng.schedule_after(2.0, lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [5.0]

    def test_schedule_after_rejects_negative(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.schedule_after(-1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        fired = []
        handle = eng.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        eng.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        eng = Engine()
        handle = eng.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_excludes_cancelled(self):
        eng = Engine()
        h1 = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        assert eng.pending == 2
        h1.cancel()
        assert eng.pending == 1


class TestRunControls:
    def test_run_until_stops_and_advances_clock(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(10.0, lambda: fired.append(2))
        eng.run(until=5.0)
        assert fired == [1]
        assert eng.now == 5.0
        eng.run()  # remaining event still fires later
        assert fired == [1, 2]

    def test_run_until_nan_raises(self):
        eng = Engine()
        fired = []
        for t in (1.0, 4.0, 9.0):
            eng.schedule(t, lambda t=t: fired.append(t))
        with pytest.raises(SimulationError, match="NaN"):
            eng.run(until=float("nan"))
        assert fired == []
        assert eng.now == 0.0
        eng.run()  # the engine stays usable
        assert fired == [1.0, 4.0, 9.0]

    def test_max_events_guard(self):
        eng = Engine()

        def reschedule():
            eng.schedule_after(1.0, reschedule)

        eng.schedule(0.0, reschedule)
        with pytest.raises(SimulationError, match="budget"):
            eng.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_events_processed_counts(self):
        eng = Engine()
        for t in (1.0, 2.0):
            eng.schedule(t, lambda: None)
        eng.run()
        assert eng.events_processed == 2

    def test_run_not_reentrant(self):
        eng = Engine()
        err = []

        def inner():
            try:
                eng.run()
            except SimulationError as exc:
                err.append(exc)

        eng.schedule(1.0, inner)
        eng.run()
        assert len(err) == 1

    def test_clear_cancels_everything(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.clear()
        eng.run()
        assert fired == []
