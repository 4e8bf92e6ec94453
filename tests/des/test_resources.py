"""Unit tests for FIFO resources in virtual time."""

import pytest

from repro.des.process import Scheduler, _Sleep
from repro.des.resources import Resource


def test_uncontended_acquire_is_instant():
    sched = Scheduler()
    core = Resource(sched, capacity=1, name="core")
    times = []

    def prog():
        core.acquire()
        times.append(sched.now)
        core.release()

    sched.spawn(prog)
    sched.run()
    assert times == [0.0]


def test_contended_resource_serializes_holders():
    sched = Scheduler()
    core = Resource(sched, capacity=1)
    log = []

    def prog(name):
        with core:
            log.append((name, "in", sched.now))
            sched.current().sleep(2.0)
        log.append((name, "out", sched.now))

    sched.spawn(prog, "a", name="a")
    sched.spawn(prog, "b", name="b")
    sched.run()
    assert log == [
        ("a", "in", 0.0),
        ("a", "out", 2.0),
        ("b", "in", 2.0),
        ("b", "out", 4.0),
    ]


def test_capacity_two_runs_two_concurrently():
    sched = Scheduler()
    pool = Resource(sched, capacity=2)
    done = []

    def prog(name):
        pool.execute(3.0)
        done.append((name, sched.now))

    for name in ("a", "b", "c"):
        sched.spawn(prog, name, name=name)
    sched.run()
    assert done == [("a", 3.0), ("b", 3.0), ("c", 6.0)]


def test_fifo_grant_order():
    sched = Scheduler()
    res = Resource(sched, capacity=1)
    order = []

    def holder():
        with res:
            sched.current().sleep(1.0)

    def waiter(name, arrive):
        sched.current().sleep(arrive)
        with res:
            order.append(name)

    sched.spawn(holder)
    sched.spawn(waiter, "first", 0.1)
    sched.spawn(waiter, "second", 0.2)
    sched.spawn(waiter, "third", 0.3)
    sched.run()
    assert order == ["first", "second", "third"]


def test_release_idle_resource_is_error():
    sched = Scheduler()
    res = Resource(sched, capacity=1)
    with pytest.raises(RuntimeError):
        res.release()


def test_invalid_capacity_rejected():
    sched = Scheduler()
    with pytest.raises(ValueError):
        Resource(sched, capacity=0)


def test_in_use_and_queued_counters():
    sched = Scheduler()
    res = Resource(sched, capacity=1)
    snapshots = []

    def holder():
        with res:
            sched.current().sleep(1.0)
            snapshots.append((res.in_use, res.queued))

    def waiter():
        sched.current().sleep(0.5)
        with res:
            snapshots.append((res.in_use, res.queued))

    sched.spawn(holder)
    sched.spawn(waiter)
    sched.run()
    assert snapshots == [(1, 1), (1, 0)]


def test_request_runs_inline_when_a_unit_is_free():
    sched = Scheduler()
    res = Resource(sched, capacity=1)
    log = []
    res.request(log.append, "granted")
    assert log == ["granted"]
    assert (res.in_use, res.queued) == (1, 0)


def test_requests_queue_fifo_behind_a_parked_acquire():
    """Process and engine-context acquirers share one FIFO; every grant
    after the first comes from a zero-delay entry at the releaser's
    virtual time, never from inside release()."""
    sched = Scheduler()
    res = Resource(sched, capacity=1)
    log = []

    def release(name):
        res.release()
        log.append(("released", name, sched.now))

    def holder():
        yield from res.co_acquire()
        yield _Sleep(1.0)
        release("holder")

    def parked():
        yield _Sleep(0.1)
        yield from res.co_acquire()  # queued: the holder has the unit
        log.append(("granted", "parked", sched.now))
        yield _Sleep(1.0)
        release("parked")

    def granted(name):
        log.append(("granted", name, sched.now))
        sched.engine.schedule(0.5, release, name)

    sched.spawn(holder, name="holder")
    sched.spawn(parked, name="parked")
    sched.engine.schedule(0.2, res.request, granted, "first")
    sched.engine.schedule(0.3, res.request, granted, "second")
    sched.run()
    assert log == [
        ("released", "holder", 1.0),
        ("granted", "parked", 1.0),
        ("released", "parked", 2.0),
        ("granted", "first", 2.0),
        ("released", "first", 2.5),
        ("granted", "second", 2.5),
        ("released", "second", 3.0),
    ]
    assert (res.in_use, res.queued) == (0, 0)
