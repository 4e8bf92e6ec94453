"""Non-blocking requests and receive status, mirroring MPI semantics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.des.process import PARK, Scheduler, SimEvent, _Sleep, blocking


@dataclass(frozen=True)
class Status:
    """Subset of MPI_Status the benchmarks and tests need."""

    source: int
    tag: int
    count: int  # payload bytes


class Request:
    """Handle for a pending isend/irecv.

    ``wait()`` blocks the calling rank until completion and returns the
    received payload (irecv) or None (isend).  A wait on a request that
    has already completed (an eager send once its injection ended, a
    receive whose message arrived first) returns at once, without
    suspending the rank.  The first wait on a receive charges the
    matched envelope's receiver-side CPU cost (matching and copy-out) in
    the waiting rank's context.

    A wait on a pending request parks the rank.  Completion makes one
    zero-delay entry, the first of its scheduling effects (the
    sanitizer's completion callback schedules nothing), and that step
    marks the wait and schedules the rank's wake after the receive cost,
    or wakes it inline when there is none or the request failed.  The
    rank resumes once, where its own code continues.

    The encrypted layer's ``EncryptedRequest`` wraps a plain request and
    decrypts after its wait.
    """

    #: sanitizer bookkeeping (a repro.analysis.sanitize.PendingOp);
    #: stays None — a class attribute, zero per-request cost — unless
    #: the job runs sanitized
    _san_op = None
    #: the envelope a receive matched, set by the comm layer on match
    _match_env = None

    def __init__(self, scheduler: Scheduler, kind: str):
        if kind not in ("send", "recv"):
            raise ValueError(f"bad request kind {kind!r}")
        self.kind = kind
        self._scheduler = scheduler
        self._event = SimEvent(scheduler)
        self._waited = False
        self.status: Status | None = None

    # -- completion side (transport) ----------------------------------------

    def complete(self, value: Any = None, status: Status | None = None) -> None:
        self.status = status
        self._event.succeed(value)

    @property
    def done_event(self) -> SimEvent:
        return self._event

    # -- user side ------------------------------------------------------------

    @property
    def completed(self) -> bool:
        """MPI_Test semantics: has the operation finished (no blocking)?"""
        return self._event.done

    def co_wait(self):
        """Wait for completion; idempotent like MPI_Wait on a request."""
        event = self._event
        if not event._done:
            # completion schedules _resume_parked(proc, event) at once
            sched = self._scheduler
            event.callbacks.append(partial(
                sched.engine.schedule, 0.0, self._resume_parked,
                sched.current()))
            yield PARK
        elif event._exc is None:
            overhead = self._mark_waited()
            if overhead:
                yield _Sleep(overhead)
        if event._exc is not None:
            raise event._exc
        return event._value

    wait = blocking(co_wait)

    def _mark_waited(self) -> float:
        """Record a successful wait; return the receive cost the first
        one charges (0.0 for later waits and for sends)."""
        if self._san_op is not None:
            self._san_op.mark_waited()
        if self._waited:
            return 0.0
        self._waited = True
        env = self._match_env
        return 0.0 if env is None else env.info.get("recv_overhead", 0.0)

    def _resume_parked(self, proc, event: SimEvent) -> None:
        """(Engine context) finish a parked wait, then wake its rank."""
        sched = self._scheduler
        if event._exc is None:
            overhead = self._mark_waited()
            if overhead:
                sched.engine.schedule(overhead, sched.wake_now, proc)
                return
        sched.wake_now(proc)


def co_waitall(requests: list[Request]):
    """MPI_Waitall: wait for every request, returning their values in order."""
    values = []
    for req in requests:
        values.append((yield from req.co_wait()))
    return values


def waitall(requests: list[Request]) -> list[Any]:
    """Blocking spelling of :func:`co_waitall` (any mix of request kinds)."""
    return [req.wait() for req in requests]
