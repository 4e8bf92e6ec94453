"""Non-blocking requests and receive status, mirroring MPI semantics."""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable

from repro.des.process import Scheduler, SimEvent, blocking


@dataclass(frozen=True)
class Status:
    """Subset of MPI_Status the benchmarks and tests need."""

    source: int
    tag: int
    count: int  # payload bytes


class Request:
    """Handle for a pending isend/irecv.

    ``wait()`` blocks the calling rank until completion and returns the
    received payload (irecv) or None (isend).  A post-processing hook
    lets the encrypted layer decrypt *inside wait* — the paper's §IV
    notes their Encrypted_IRecv does exactly that to preserve the
    non-blocking property.
    """

    #: sanitizer bookkeeping (a repro.analysis.sanitize.PendingOp);
    #: stays None — a class attribute, zero per-request cost — unless
    #: the job runs sanitized
    _san_op = None

    def __init__(self, scheduler: Scheduler, kind: str):
        if kind not in ("send", "recv"):
            raise ValueError(f"bad request kind {kind!r}")
        self.kind = kind
        self._scheduler = scheduler
        self._event: SimEvent = scheduler.event()
        self._postprocess: Callable[[Any], Any] | None = None
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

    def set_postprocess(self, fn: Callable[[Any], Any]) -> None:
        """Install a hook run (once) in the waiting rank after completion.

        The hook may be a plain function or a generator function (one
        that charges virtual time by yielding ``_Sleep``/events) — the
        encrypted layer decrypts there, and decryption costs time.
        """
        if self._postprocess is not None:
            raise RuntimeError("postprocess hook already set")
        self._postprocess = fn

    @property
    def completed(self) -> bool:
        """MPI_Test semantics: has the operation finished (no blocking)?"""
        return self._event.done

    def co_wait(self):
        """Wait for completion; idempotent like MPI_Wait on a request."""
        value = yield self._event
        if self._san_op is not None:
            self._san_op.mark_waited()
        if not self._waited:
            self._waited = True
            if self._postprocess is not None:
                out = self._postprocess(value)
                if isinstance(out, GeneratorType):
                    out = yield from out
                value = out
                self._cached = value
        elif self._postprocess is not None:
            value = self._cached
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
