"""Unit tests for thread-backed simulated processes."""

import pytest

from repro.des.engine import DeadlockError
from repro.des.process import ProcessFailed, Scheduler


def test_single_process_sleeps_in_virtual_time():
    sched = Scheduler()
    log = []

    def prog():
        log.append(("start", sched.now))
        sched.current().sleep(2.5)
        log.append(("end", sched.now))
        return "done"

    proc = sched.spawn(prog, name="p")
    sched.run()
    assert log == [("start", 0.0), ("end", 2.5)]
    assert proc.finished.done
    assert proc.result == "done"


def test_two_processes_interleave_deterministically():
    sched = Scheduler()
    log = []

    def prog(name, delay):
        me = sched.current()
        for _ in range(3):
            me.sleep(delay)
            log.append((name, sched.now))

    sched.spawn(prog, "fast", 1.0, name="fast")
    sched.spawn(prog, "slow", 1.5, name="slow")
    sched.run()
    # At t=3.0 both wake; the tie goes to slow, whose wake event was
    # scheduled first (at t=1.5 vs fast's at t=2.0).
    assert log == [
        ("fast", 1.0),
        ("slow", 1.5),
        ("fast", 2.0),
        ("slow", 3.0),
        ("fast", 3.0),
        ("slow", 4.5),
    ]


def test_event_handoff_between_processes():
    sched = Scheduler()
    ev = sched.event()
    log = []

    def producer():
        sched.current().sleep(3.0)
        ev.succeed(42)

    def consumer():
        value = ev.wait()
        log.append((value, sched.now))

    sched.spawn(consumer, name="consumer")
    sched.spawn(producer, name="producer")
    sched.run()
    assert log == [(42, 3.0)]


def test_event_wait_after_completion_returns_immediately():
    sched = Scheduler()
    ev = sched.event()
    log = []

    def prog():
        ev.succeed("early")
        sched.current().sleep(1.0)
        log.append(ev.wait())

    sched.spawn(prog)
    sched.run()
    assert log == ["early"]


def test_multiple_waiters_all_wake():
    sched = Scheduler()
    ev = sched.event()
    woken = []

    def waiter(i):
        ev.wait()
        woken.append(i)

    for i in range(4):
        sched.spawn(waiter, i, name=f"w{i}")

    def trigger():
        sched.current().sleep(5.0)
        ev.succeed(None)

    sched.spawn(trigger)
    sched.run()
    assert sorted(woken) == [0, 1, 2, 3]
    assert sched.now == 5.0


def test_event_failure_propagates_to_waiter():
    sched = Scheduler()
    ev = sched.event()

    def waiter():
        ev.wait()

    def failer():
        ev.fail(ValueError("boom"))

    sched.spawn(waiter)
    sched.spawn(failer)
    with pytest.raises(ProcessFailed):
        sched.run()


def test_process_exception_reraised_with_cause():
    sched = Scheduler()

    def prog():
        raise RuntimeError("rank exploded")

    sched.spawn(prog)
    with pytest.raises(ProcessFailed) as excinfo:
        sched.run()
    assert isinstance(excinfo.value.__cause__, RuntimeError)


def test_blocked_process_raises_deadlock():
    sched = Scheduler()
    ev = sched.event()  # never succeeds

    def prog():
        ev.wait()

    sched.spawn(prog, name="stuck")
    with pytest.raises(DeadlockError, match="stuck"):
        sched.run()


def test_timeout_event():
    sched = Scheduler()
    log = []

    def prog():
        sched.timeout(4.0).wait()
        log.append(sched.now)

    sched.spawn(prog)
    sched.run()
    assert log == [4.0]


def test_spawn_from_within_process():
    sched = Scheduler()
    log = []

    def child():
        sched.current().sleep(1.0)
        log.append(("child", sched.now))

    def parent():
        me = sched.current()
        me.sleep(2.0)
        proc = sched.spawn(child, name="child")
        proc.finished.wait()
        log.append(("parent", sched.now))

    sched.spawn(parent, name="parent")
    sched.run()
    assert log == [("child", 3.0), ("parent", 3.0)]


def test_negative_sleep_rejected():
    sched = Scheduler()

    def prog():
        sched.current().sleep(-1.0)

    sched.spawn(prog)
    with pytest.raises(ProcessFailed):
        sched.run()
