"""FIFO resources in virtual time.

A :class:`Resource` models a pool of identical servers (CPU cores, a
NIC's send engine, ...).  Simulated processes acquire and release it;
engine-context code asks for a unit with :meth:`Resource.request` and
gets a callback.  Grant order is strictly FIFO at equal virtual times,
preserving the engine's determinism.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.des.process import PARK, Scheduler, SimEvent, _Sleep, blocking


class Resource:
    """A counted resource with one FIFO of waiting callbacks.

    A process waits as the callback ``scheduler.wake_now(proc)``, so
    process and engine-context acquirers queue together.
    """

    def __init__(self, scheduler: Scheduler, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._scheduler = scheduler
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: deque[tuple[Callable[..., None], tuple]] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def request(self, callback: Callable[..., None], *args: Any) -> None:
        """(Engine context) run *callback(*args)* holding one unit:
        inline when a unit is free, else when a release hands it over."""
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            callback(*args)
        else:
            self._queue.append((callback, args))

    def co_acquire(self):
        """Suspend the calling process until a unit is available."""
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            return
        sched = self._scheduler
        self._queue.append((sched.wake_now, (sched.current(),)))
        yield PARK

    acquire = blocking(co_acquire)

    def release(self) -> None:
        """Return one unit; grants it to the longest waiter, if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._queue:
            # Hand the unit directly to the next waiter: in_use stays the
            # same, and one zero-delay entry runs its callback at the
            # current virtual time.
            callback, args = self._queue.popleft()
            self._scheduler.engine.schedule(0.0, callback, *args)
        else:
            self._in_use -= 1

    def __enter__(self) -> "Resource":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def co_execute(self, seconds: float):
        """Acquire a unit, hold it for *seconds* of virtual time, release."""
        yield from self.co_acquire()
        try:
            yield _Sleep(seconds)
        finally:
            self.release()

    execute = blocking(co_execute)


class WorkPool:
    """A pool of identical servers for fire-and-forget work items.

    Unlike :class:`Resource` — whose holder decides when to release its
    unit — a WorkPool is driven entirely by engine callbacks:
    :meth:`submit` charges a duration against the next free server and
    returns a :class:`SimEvent` that succeeds when the item finishes.
    Items queue FIFO when all servers are busy, at equal
    virtual times in submission order, so the completion schedule is
    deterministic.  This is the substrate of the per-node
    :class:`~repro.models.cpu.CoreAllocator`: hundreds of chunk-seal
    jobs cost no OS threads.
    """

    def __init__(self, scheduler: Scheduler, capacity: int, name: str = "pool"):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._scheduler = scheduler
        self.capacity = capacity
        self.name = name
        self._busy = 0
        self._queue: deque[tuple[float, SimEvent]] = deque()

    @property
    def busy(self) -> int:
        return self._busy

    @property
    def queued(self) -> int:
        return len(self._queue)

    def submit(self, seconds: float, after: SimEvent | None = None) -> SimEvent:
        """Schedule *seconds* of work on the next free server.

        Returns an event succeeding (with the finish time as value) when
        the work completes.  With *after* set, the item is only enqueued
        once that event succeeds — the cheap way to express per-operation
        concurrency caps (chunk i waits for chunk i-cap).
        """
        if self.capacity == 0:
            raise RuntimeError(f"work pool {self.name!r} has no servers")
        if seconds < 0:
            raise ValueError(f"negative work duration: {seconds}")
        done = self._scheduler.event()
        if after is not None and not after.done:
            after.callbacks.append(lambda _ev: self._enqueue(seconds, done))
        else:
            self._enqueue(seconds, done)
        return done

    def _enqueue(self, seconds: float, done: SimEvent) -> None:
        if self._busy < self.capacity:
            self._start(seconds, done)
        else:
            self._queue.append((seconds, done))

    def _start(self, seconds: float, done: SimEvent) -> None:
        self._busy += 1
        self._scheduler.engine.schedule(seconds, self._finish, done)

    def _finish(self, done: SimEvent) -> None:
        self._busy -= 1
        if self._queue:
            self._start(*self._queue.popleft())
        done.succeed(self._scheduler.now)
