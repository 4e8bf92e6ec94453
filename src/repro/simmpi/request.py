"""Non-blocking requests and receive status, mirroring MPI semantics.

A :class:`Request` is its own completion record: it holds the done
flag, the value or exception and the completion callbacks itself, with
no :class:`~repro.des.process.SimEvent` inside.  A receive is also its
own posted receive: :meth:`Request.on_match` is what the matching
engine calls, and the :class:`Status` is built from the matched
envelope on first read.  So a message allocates its envelope, its two
requests and the transport's route link, and no event, status or
closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.des.process import PARK, Scheduler, _Sleep, blocking


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

    A wait on a pending request parks the rank.  Completion runs the
    completion callbacks (the sanitizer's, which schedules nothing) and
    then makes one zero-delay entry, and that step marks the wait and
    schedules the rank's wake after the receive cost, or wakes it
    inline when there is none or the request failed.  The rank resumes
    once, where its own code continues.

    ``status`` is None until a receive completes; then it is built
    from the matched envelope on first read, with the source in the
    posting handle's ranks (a ``split`` group's local rank).

    ``done_event`` is the request itself: it has the ``callbacks``
    list and the ``fail`` method that the sanitizer and tests use on a
    completion event.

    The encrypted layer's ``EncryptedRequest`` wraps a plain request and
    decrypts after its wait.
    """

    __slots__ = ("kind", "_scheduler", "_done", "_value", "_exc",
                 "_callbacks", "_parked", "_waited", "_match_env", "_status",
                 "_to_local", "_san_op")

    def __init__(self, scheduler: Scheduler, kind: str):
        if kind not in ("send", "recv"):
            raise ValueError(f"bad request kind {kind!r}")
        self.kind = kind
        self._scheduler = scheduler
        self._done = False
        self._value: Any = None
        self._exc: BaseException | None = None
        self._callbacks: list[Callable[["Request"], None]] | None = None
        #: the rank parked in this request's wait
        self._parked = None
        self._waited = False
        #: the envelope a receive matched (set by on_match)
        self._match_env = None
        self._status: Status | None = None
        #: global -> local rank map of a split group's receive (None for
        #: the world, whose ranks are global)
        self._to_local: dict[int, int] | None = None
        #: sanitizer bookkeeping (a repro.analysis.sanitize.PendingOp)
        #: when the job runs sanitized
        self._san_op = None

    # -- completion side (transport, matching) --------------------------------

    def complete(self, value: Any = None, status: Status | None = None) -> None:
        """Succeed with *value*; *status*, when given, is what ``status``
        reports instead of one built from the matched envelope."""
        if status is not None:
            self._status = status
        self._finish(value, None)

    def fail(self, exc: BaseException) -> None:
        """Complete with *exc*: every wait raises it."""
        self._finish(None, exc)

    def _finish(self, value: Any, exc: BaseException | None) -> None:
        if self._done:
            raise RuntimeError("request completed twice")
        self._done = True
        self._value = value
        self._exc = exc
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            for cb in callbacks:
                cb(self)
        proc = self._parked
        if proc is not None:
            self._scheduler.engine.schedule(0.0, self._resume_parked, proc)

    def on_match(self, env) -> None:
        """(Matching engine) a message matched this receive: complete
        now, or when a rendezvous payload arrives after its CTS."""
        self._match_env = env  # co_wait charges its recv_overhead
        trigger = env.info.get("rendezvous_trigger")
        if trigger is None:
            self._finish(env.payload, None)
            return
        # The payload follows the CTS, so it arrives strictly later.
        trigger(env)
        env.info["data_ready"].callbacks.append(self._payload_arrived)

    def _payload_arrived(self, _data_ready) -> None:
        self._finish(self._match_env.payload, None)

    @property
    def callbacks(self) -> list[Callable[["Request"], None]]:
        """Called with the request, in the engine context, on completion
        (the list is made on first use)."""
        if self._callbacks is None:
            self._callbacks = []
        return self._callbacks

    @property
    def done_event(self) -> "Request":
        return self

    # -- user side ------------------------------------------------------------

    @property
    def completed(self) -> bool:
        """MPI_Test semantics: has the operation finished (no blocking)?"""
        return self._done

    @property
    def status(self) -> Status | None:
        """The receive's status once it completed (None before, and for
        sends and failed requests)."""
        status = self._status
        env = self._match_env
        if status is None and self._done and self._exc is None \
                and env is not None:
            to_local = self._to_local
            source = env.src if to_local is None else to_local[env.src]
            status = self._status = Status(source, env.tag, len(env.payload))
        return status

    def co_wait(self):
        """Wait for completion; idempotent like MPI_Wait on a request."""
        if not self._done:
            # completion schedules _resume_parked(proc) at once
            self._parked = self._scheduler.current()
            yield PARK
        elif self._exc is None:
            overhead = self._mark_waited()
            if overhead:
                yield _Sleep(overhead)
        if self._exc is not None:
            raise self._exc
        return self._value

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

    def _resume_parked(self, proc) -> None:
        """(Engine context) finish a parked wait, then wake its rank."""
        sched = self._scheduler
        if self._exc is None:
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
