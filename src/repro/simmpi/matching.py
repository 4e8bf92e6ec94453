"""Receiver-side message matching: posted receives vs unexpected messages.

Mirrors the MPICH matching discipline: a recv posted for (source, tag)
matches the *earliest-arrived* unexpected envelope that satisfies it; an
arriving envelope matches the earliest posted recv it satisfies.  The
transport delivers envelopes per-route in send order (like an in-order
fabric), so this also provides MPI's non-overtaking guarantee.

A posted receive is a plain ``(source, tag, comm_id, on_match,
require_id)`` tuple, and :meth:`MatchingEngine.post_recv` and
:meth:`MatchingEngine.deliver` test its fields inline; the comm layer
posts a request's bound :meth:`~repro.simmpi.request.Request.on_match`.
Probes, which observe without consuming, are :class:`_PostedRecv`
records.
"""

from __future__ import annotations

from typing import Callable

from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Envelope


def _emit_match(rec, rank: int, env: Envelope) -> None:
    rec.emit("transport", "match", rank, src=env.src, tag=env.tag,
             bytes=env.payload_bytes)


class _PostedRecv:
    """A posted probe, one per probe call."""

    __slots__ = ("source", "tag", "comm_id", "on_match")

    def __init__(self, source: int, tag: int, comm_id,
                 on_match: Callable[[Envelope], None]) -> None:
        self.source = source
        self.tag = tag
        self.comm_id = comm_id
        self.on_match = on_match


class MatchingEngine:
    """One per rank.  Not thread-racy: all calls happen in sim handoff.

    With a *recorder* (a TraceRecorder), every match of a posted
    receive emits a ``match`` event just before its ``on_match`` runs.
    """

    def __init__(self, rank: int, recorder=None):
        self.rank = rank
        self.recorder = recorder
        #: (source, tag, comm_id, on_match, require_id), in post order
        self._posted: list[tuple] = []
        self._unexpected: list[Envelope] = []
        self._probes: list[_PostedRecv] = []

    def post_recv(
        self,
        source: int,
        tag: int,
        comm_id: int,
        on_match: Callable[[Envelope], None],
        require_id: int | None = None,
    ) -> None:
        """Register a receive; fires *on_match* immediately if an
        unexpected envelope already satisfies it.

        When *require_id* is set, only an envelope carrying this
        reliable-delivery id (``env.info["rd_id"]``) matches: the
        resilience layer pins a re-posted receive to the retransmitted
        copy, so later messages on the route cannot overtake it through
        this receive.
        """
        unexpected = self._unexpected
        for i, env in enumerate(unexpected):
            if (env.comm_id == comm_id
                    and (source == ANY_SOURCE or source == env.src)
                    and (tag == ANY_TAG or tag == env.tag)
                    and (require_id is None
                         or env.info.get("rd_id") == require_id)):
                del unexpected[i]
                rec = self.recorder
                if rec is not None:
                    _emit_match(rec, self.rank, env)
                on_match(env)
                return
        self._posted.append((source, tag, comm_id, on_match, require_id))

    def deliver(self, env: Envelope) -> None:
        """An envelope arrived: match a posted recv or queue unexpected."""
        if env.dst != self.rank:
            raise ValueError(f"envelope for rank {env.dst} delivered to {self.rank}")
        if self._probes:
            # Probes observe the message without consuming it.
            still_waiting = []
            for probe in self._probes:
                if probe.comm_id == env.comm_id and env.matches(probe.source, probe.tag):
                    probe.on_match(env)
                else:
                    still_waiting.append(probe)
            self._probes = still_waiting
        posted = self._posted
        src, tag, comm_id = env.src, env.tag, env.comm_id
        for i, (p_source, p_tag, p_comm, on_match, require_id) \
                in enumerate(posted):
            if (p_comm == comm_id
                    and (p_source == ANY_SOURCE or p_source == src)
                    and (p_tag == ANY_TAG or p_tag == tag)
                    and (require_id is None
                         or env.info.get("rd_id") == require_id)):
                del posted[i]
                rec = self.recorder
                if rec is not None:
                    _emit_match(rec, self.rank, env)
                on_match(env)
                return
        self._unexpected.append(env)

    # -- probing ------------------------------------------------------------

    def peek(self, source: int, tag: int, comm_id) -> Envelope | None:
        """Earliest matching unexpected envelope, left in the queue."""
        for env in self._unexpected:
            if env.comm_id == comm_id and env.matches(source, tag):
                return env
        return None

    def post_probe(self, source: int, tag: int, comm_id, on_match) -> None:
        """Fire *on_match* for the earliest matching message, now or on
        arrival, without consuming it."""
        env = self.peek(source, tag, comm_id)
        if env is not None:
            on_match(env)
            return
        self._probes.append(_PostedRecv(source, tag, comm_id, on_match))

    @property
    def pending_posted(self) -> int:
        return len(self._posted)

    @property
    def pending_unexpected(self) -> int:
        return len(self._unexpected)

    # -- introspection (sanitizer reports) -----------------------------------

    def unexpected_ops(self) -> list[tuple[int, int]]:
        """(src, tag) of every never-consumed envelope, in arrival order."""
        return [(e.src, e.tag) for e in self._unexpected]
