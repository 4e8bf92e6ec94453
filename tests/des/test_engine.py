"""Unit tests for the discrete-event engine."""

import pytest

from repro.des.engine import DeadlockError, Engine, SimTimeError


def test_events_run_in_time_order():
    engine = Engine()
    seen = []
    engine.schedule(3.0, seen.append, "c")
    engine.schedule(1.0, seen.append, "a")
    engine.schedule(2.0, seen.append, "b")
    engine.run()
    assert seen == ["a", "b", "c"]
    assert engine.now == 3.0


def test_ties_break_by_insertion_order():
    engine = Engine()
    seen = []
    for tag in range(5):
        engine.schedule(1.0, seen.append, tag)
    engine.run()
    assert seen == [0, 1, 2, 3, 4]


def test_callbacks_may_schedule_more_events():
    engine = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            engine.schedule(1.0, chain, n + 1)

    engine.schedule(0.0, chain, 0)
    engine.run()
    assert seen == [0, 1, 2, 3]
    assert engine.now == 3.0


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimTimeError):
        engine.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.schedule(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimTimeError):
        engine.schedule_at(1.0, lambda: None)


def test_schedule_hands_out_no_handle():
    """Only ``schedule_at`` builds a cancellation handle."""
    engine = Engine()
    assert engine.schedule(1.0, lambda: None) is None
    handle = engine.schedule_at(2.0, lambda: None)
    assert handle.time == 2.0 and not handle.cancelled


def test_cancelled_events_do_not_run():
    engine = Engine()
    seen = []
    handle = engine.schedule_at(engine.now + 1.0, seen.append, "cancelled")
    engine.schedule(2.0, seen.append, "kept")
    handle.cancel()
    assert handle.cancelled
    engine.run()
    assert seen == ["kept"]


def test_run_until_stops_cleanly():
    engine = Engine()
    seen = []
    engine.schedule(1.0, seen.append, "early")
    engine.schedule(10.0, seen.append, "late")
    engine.run(until=5.0)
    assert seen == ["early"]
    assert engine.now == 5.0
    engine.run()
    assert seen == ["early", "late"]


def test_run_until_advances_clock_with_empty_heap():
    engine = Engine()
    engine.run(until=7.0)
    assert engine.now == 7.0


def test_blocked_reporter_triggers_deadlock_error():
    engine = Engine()
    engine._blocked_reporter = lambda: ["rank0 (Recv)"]
    with pytest.raises(DeadlockError, match="rank0"):
        engine.run()


def test_pending_events_counts_uncancelled():
    engine = Engine()
    h = engine.schedule_at(engine.now + 1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.pending_events() == 2
    h.cancel()
    assert engine.pending_events() == 1
