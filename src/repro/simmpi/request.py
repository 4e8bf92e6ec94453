"""Non-blocking requests and receive status, mirroring MPI semantics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.des.process import Scheduler, SimEvent, _Sleep, blocking


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
    the waiting rank's context.  The encrypted layer's
    ``EncryptedRequest`` wraps a plain request and decrypts after its
    wait.
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
            value = yield event
        elif event._exc is not None:
            raise event._exc
        else:
            value = event._value
        if self._san_op is not None:
            self._san_op.mark_waited()
        if not self._waited:
            self._waited = True
            env = self._match_env
            if env is not None:
                overhead = env.info.get("recv_overhead", 0.0)
                if overhead:
                    yield _Sleep(overhead)
        return value

    wait = blocking(co_wait)


def co_waitall(requests: list[Request]):
    """MPI_Waitall: wait for every request, returning their values in order."""
    values = []
    for req in requests:
        values.append((yield from req.co_wait()))
    return values


def waitall(requests: list[Request]) -> list[Any]:
    """Blocking spelling of :func:`co_waitall` (any mix of request kinds)."""
    return [req.wait() for req in requests]
