"""Receiver-side message matching: posted receives vs unexpected messages.

Mirrors the MPICH matching discipline: a recv posted for (source, tag)
matches the *earliest-arrived* unexpected envelope that satisfies it; an
arriving envelope matches the earliest posted recv it satisfies.  The
transport delivers envelopes per-route in send order (like an in-order
fabric), so this also provides MPI's non-overtaking guarantee.
"""

from __future__ import annotations

from typing import Callable

from repro.simmpi.message import Envelope


class _PostedRecv:
    """A posted receive (or probe), one per receive call."""

    __slots__ = ("source", "tag", "comm_id", "on_match", "require_id")

    def __init__(self, source: int, tag: int, comm_id,
                 on_match: Callable[[Envelope], None],
                 require_id: int | None = None) -> None:
        self.source = source
        self.tag = tag
        self.comm_id = comm_id
        self.on_match = on_match
        #: when set, only an envelope carrying this reliable-delivery id
        #: (env.info["rd_id"]) matches — used by the resilience layer to
        #: pin a re-posted receive to the retransmitted copy, so later
        #: messages on the route cannot overtake it through this recv
        self.require_id = require_id

    def satisfies(self, env: Envelope) -> bool:
        if env.comm_id != self.comm_id or not env.matches(self.source, self.tag):
            return False
        if self.require_id is not None:
            return env.info.get("rd_id") == self.require_id
        return True


class MatchingEngine:
    """One per rank.  Not thread-racy: all calls happen in sim handoff."""

    def __init__(self, rank: int):
        self.rank = rank
        self._posted: list[_PostedRecv] = []
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
        unexpected envelope already satisfies it."""
        recv = _PostedRecv(source, tag, comm_id, on_match, require_id)
        for i, env in enumerate(self._unexpected):
            if recv.satisfies(env):
                del self._unexpected[i]
                on_match(env)
                return
        self._posted.append(recv)

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
        for i, posted in enumerate(self._posted):
            if posted.satisfies(env):
                del self._posted[i]
                posted.on_match(env)
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
