"""The discrete-event engine: a virtual clock and an ordered event heap.

Events are callbacks scheduled at absolute virtual times.  Ties are
broken by insertion order, which — together with the single-threaded
handoff discipline in :mod:`repro.des.process` — makes every simulation
fully deterministic: the same program and seed always produce the same
event order and the same virtual timings.

Heap entries are plain ``[time, seq, callback, args]`` lists rather than
event objects: ``heapq`` then orders them with C-level list comparison
(time first, then the unique seq — the callback slot is never reached),
which removes a Python-level ``__lt__`` call per comparison from the
simulator's hottest loop.  :meth:`Engine.schedule` returns nothing, so
a fire-and-forget event costs its entry alone; only
:meth:`Engine.schedule_at` hands out an :class:`EventHandle`, whose
cancellation nulls the callback slot, and the run loop skips such
entries when they surface.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable


class SimTimeError(ValueError):
    """An event was scheduled in the past or with a negative delay."""


class DeadlockError(RuntimeError):
    """The event heap drained while simulated processes were still blocked.

    For the MPI simulator this is the moral equivalent of an MPI hang
    (e.g. a ``Recv`` with no matching ``Send``); the error message lists
    the blocked processes to make the mismatch debuggable.
    """


# Heap-entry slots (a 4-list, compared element-wise by heapq).
_TIME, _SEQ, _CALLBACK, _ARGS = 0, 1, 2, 3


class EventHandle:
    """Handle returned by :meth:`Engine.schedule_at`; supports
    cancellation.  A cancellable event at *delay* from now is
    ``schedule_at(engine.now + delay, ...)``: the same float time that
    :meth:`Engine.schedule` would compute."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    def cancel(self) -> None:
        self._entry[_CALLBACK] = None

    @property
    def cancelled(self) -> bool:
        return self._entry[_CALLBACK] is None

    @property
    def time(self) -> float:
        return self._entry[_TIME]


class Engine:
    """Virtual clock plus event heap.

    The engine itself knows nothing about processes; the rank runtimes
    that step them are layered on top in :mod:`repro.des.process`.
    ``Engine.run`` drains the heap, advancing ``now`` monotonically.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[list] = []
        self._seq = 0
        self._running = False
        # Populated by the process layer so the engine can report
        # blocked processes on deadlock.
        self._blocked_reporter: Callable[[], list[str]] | None = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule *callback(*args)* to run *delay* seconds from now
        (not cancellable: see :meth:`schedule_at`)."""
        if delay < 0:
            raise SimTimeError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, [self._now + delay, seq, callback, args])

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule *callback(*args)* at absolute virtual *time*; the
        returned handle cancels it."""
        if time < self._now:
            raise SimTimeError(f"cannot schedule at {time} < now {self._now}")
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, args]
        heappush(self._heap, entry)
        return EventHandle(entry)

    def run(self, until: float | None = None) -> float:
        """Drain the event heap; return the final virtual time.

        With *until* set, stops (without error) once the next event would
        be later than *until*, leaving ``now == until``.  Raises
        :class:`DeadlockError` if the heap empties while processes remain
        blocked.
        """
        if self._running:
            raise RuntimeError("Engine.run is not reentrant")
        self._running = True
        heap = self._heap
        try:
            while heap:
                entry = heap[0]
                callback = entry[_CALLBACK]
                if callback is None:  # cancelled
                    heappop(heap)
                    continue
                time = entry[_TIME]
                if until is not None and time > until:
                    self._now = until
                    return self._now
                heappop(heap)
                self._now = time
                callback(*entry[_ARGS])
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
        if self._blocked_reporter is not None:
            blocked = self._blocked_reporter()
            if blocked:
                raise DeadlockError(
                    "event heap drained with blocked processes (MPI hang?): "
                    + ", ".join(blocked)
                )
        return self._now

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the heap (for tests)."""
        return sum(1 for e in self._heap if e[_CALLBACK] is not None)
