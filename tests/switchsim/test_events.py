"""Unit tests for the event queue of the test-only reference simulator."""

import pytest

from repro.errors import SimulationError
from tests.switchsim.event_oracle import EventQueue


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.schedule(30, "c", 1)
        queue.schedule(10, "a", 1)
        queue.schedule(20, "b", 0)
        order = [queue.pop().net for _ in range(3)]
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_pop_in_schedule_order(self):
        queue = EventQueue()
        queue.schedule(10, "x", 1)
        queue.schedule(10, "y", 0)
        assert queue.pop().net == "x"
        assert queue.pop().net == "y"

    def test_empty_pop_returns_none(self):
        assert EventQueue().pop() is None

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(-1, "x", 1)


class TestInertialSuperseding:
    def test_new_event_replaces_pending(self):
        queue = EventQueue()
        queue.schedule(10, "x", 1)
        queue.schedule(5, "x", 0)  # supersedes
        event = queue.pop()
        assert (event.time_fs, event.value) == (5, 0)
        assert queue.pop() is None  # old event lazily dropped

    def test_pending_value_tracks_latest(self):
        queue = EventQueue()
        queue.schedule(10, "x", 1)
        assert queue.pending_value("x") == 1
        queue.schedule(20, "x", 0)
        assert queue.pending_value("x") == 0

    def test_cancel_removes_pending(self):
        queue = EventQueue()
        queue.schedule(10, "x", 1)
        queue.cancel("x")
        assert not queue.has_pending("x")
        assert queue.pop() is None

    def test_has_pending_cleared_after_pop(self):
        queue = EventQueue()
        queue.schedule(10, "x", 1)
        queue.pop()
        assert not queue.has_pending("x")

    def test_independent_nets_unaffected(self):
        queue = EventQueue()
        queue.schedule(10, "x", 1)
        queue.schedule(15, "y", 1)
        queue.cancel("x")
        event = queue.pop()
        assert event.net == "y"


class TestPeek:
    def test_peek_skips_dead_events(self):
        queue = EventQueue()
        queue.schedule(10, "x", 1)
        queue.schedule(20, "y", 1)
        queue.cancel("x")
        assert queue.peek_time() == 20

    def test_peek_empty(self):
        assert EventQueue().peek_time() is None

    def test_len_counts_heap_entries(self):
        queue = EventQueue()
        queue.schedule(10, "x", 1)
        queue.schedule(20, "x", 0)
        assert len(queue) == 2  # includes the superseded entry
