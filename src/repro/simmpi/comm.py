"""The per-rank communicator API.

A single :class:`Communicator` object exists per simulated job; each
rank interacts with it through a :class:`CommHandle` bound to its rank,
whose methods mirror the MPI routines the paper instruments:

- point-to-point: ``send``, ``recv``, ``isend``, ``irecv``, ``wait``
  (on the returned :class:`Request`), ``waitall``, ``sendrecv``,
  ``probe``/``iprobe``;
- collectives: ``bcast``, ``allgather``, ``alltoall``, ``alltoallv``
  (§IV's list), plus ``gather``, ``scatter``, ``reduce``, ``allreduce``,
  ``reduce_scatter``, ``scan``, ``barrier``;
- communicator management: ``split`` (MPI_Comm_split).

Payloads are bytes; higher layers (encrypted MPI, workloads) build
structure on top.  Collective algorithms live in
:mod:`repro.simmpi.collectives` and call back into this point-to-point
layer, the same layering MPICH uses.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from repro.des.process import Scheduler, blocking
from repro.simmpi import collectives as _coll
from repro.simmpi.message import (
    ANY_SOURCE,
    ANY_TAG,
    MAX_USER_TAG,
    Envelope,
    OpaquePayload,
)
from repro.simmpi.request import Request, Status, co_waitall, waitall
from repro.simmpi.topology import ClusterRuntime
from repro.simmpi.transport import Transport

_comm_ids = itertools.count()

#: Base of the internal tag space used by collective phases.
_COLL_TAG_BASE = MAX_USER_TAG


class Communicator:
    """Job-wide state: transport plus per-rank collective sequencing."""

    def __init__(self, scheduler: Scheduler, cluster: ClusterRuntime,
                 recorder=None, sanitizer=None):
        self.scheduler = scheduler
        self.cluster = cluster
        self.size = cluster.nranks
        self.comm_id = next(_comm_ids)
        self.recorder = recorder
        #: repro.analysis.sanitize.Sanitizer when the job runs
        #: sanitized; None (the common case) costs one attribute test
        #: per posted operation
        self.sanitizer = sanitizer
        self.transport = Transport(scheduler, cluster, recorder)
        self._coll_seq = [0] * self.size

    def handle(self, rank: int) -> "CommHandle":
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range 0..{self.size - 1}")
        return CommHandle(self, rank)


class CommHandle:
    """The MPI-like API one rank sees.

    A handle is either the world view (``members is None``: local ranks
    are global ranks) or a *group* view created by :meth:`split`
    (``members`` maps local rank → global rank, and the group gets its
    own communication context id, so traffic never crosses groups).
    """

    def __init__(
        self,
        comm: Communicator,
        rank: int,
        *,
        members: list[int] | None = None,
        comm_id=None,
    ):
        self._comm = comm
        self._scheduler = comm.scheduler
        self.rank = rank
        self._members = members
        if members is None:
            self.size = comm.size
            self._comm_id = comm.comm_id if comm_id is None else comm_id
            self._group_coll_seq: int | None = None
            self._to_local: dict[int, int] | None = None
        else:
            self.size = len(members)
            if comm_id is None:
                raise ValueError("group handles need an explicit comm_id")
            self._comm_id = comm_id
            self._group_coll_seq = 0
            self._to_local = {g: l for l, g in enumerate(members)}

    # -- rank translation ---------------------------------------------------

    def _global_rank(self, local: int) -> int:
        return local if self._members is None else self._members[local]

    def _local_rank(self, global_rank: int) -> int:
        if self._to_local is None:
            return global_rank
        return self._to_local[global_rank]

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------

    def co_isend(self, data: bytes, dest: int, tag: int = 0, *,
                 wire_bytes: int = -1, payload_bytes: int = -1,
                 _internal: bool = False, _reseal=None):
        """Non-blocking send; completes when the buffer is reusable.

        ``payload_bytes`` overrides traffic accounting for payloads that
        carry protocol headers (collective packing); see Envelope.
        ``_reseal`` (resilience-armed encrypted sends only) is the
        closure the reliability layer calls to re-frame the message with
        a fresh nonce for a retransmission.
        """
        # _check_peer and _check_tag, inline on the per-message path
        if not 0 <= dest < self.size:
            raise ValueError(
                f"peer rank {dest} out of range 0..{self.size - 1}")
        if _internal:
            if tag < 0:
                raise ValueError(f"negative internal tag {tag}")
        elif not 0 <= tag < MAX_USER_TAG:
            raise ValueError(
                f"user tag must be in [0, {MAX_USER_TAG}), got {tag}")
        if isinstance(data, OpaquePayload):
            payload = data  # zero-copy simulated frame
        elif isinstance(data, (bytes, bytearray, memoryview)):
            payload = bytes(data)
        else:
            raise TypeError(f"payload must be bytes-like, got {type(data).__name__}")
        members = self._members
        if members is None:  # the world: local ranks are global
            src, dst = self.rank, dest
        else:
            src, dst = members[self.rank], members[dest]
        env = Envelope(
            src=src,
            dst=dst,
            tag=tag,
            comm_id=self._comm_id,
            payload=payload,
            wire_bytes=wire_bytes,
            payload_bytes=payload_bytes,
        )
        if _reseal is not None:
            env.info["reseal"] = _reseal
        req = Request(self._comm.scheduler, "send")
        san = self._comm.sanitizer
        if san is not None:
            san.note_post(req, kind="send", rank=env.src, peer=env.dst,
                          tag=tag, nbytes=len(payload),
                          now=self._comm.scheduler.now)
        yield from self._comm.transport.co_isend(env, req.complete)
        return req

    isend = blocking(co_isend)

    def co_send(self, data: bytes, dest: int, tag: int = 0, *,
                wire_bytes: int = -1, payload_bytes: int = -1,
                _internal: bool = False):
        """Send; returns when the send buffer is reusable."""
        req = yield from self.co_isend(
            data, dest, tag, wire_bytes=wire_bytes,
            payload_bytes=payload_bytes, _internal=_internal,
        )
        yield from req.co_wait()

    send = blocking(co_send)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *,
              _internal: bool = False, _require_id: int | None = None) -> Request:
        """Non-blocking receive; ``wait()`` returns the payload bytes.

        ``_require_id`` pins the receive to one reliable-delivery id
        (resilience re-posts only); see MatchingEngine.post_recv.
        """
        if source != ANY_SOURCE:
            self._check_peer(source)
        self._check_tag(tag, _internal, allow_any=True)
        comm = self._comm
        sched = comm.scheduler
        req = Request(sched, "recv")
        members = self._members
        if members is None:  # the world: local ranks are global
            me, match_source = self.rank, source
        else:
            me = members[self.rank]
            match_source = source if source == ANY_SOURCE else members[source]
            req._to_local = self._to_local  # its status reports local ranks
        rec = comm.recorder
        if rec is not None:
            rec.emit("transport", "recv_posted", me, src=match_source,
                     tag=tag)
        san = comm.sanitizer
        if san is not None:
            san.note_post(req, kind="recv", rank=me, peer=match_source,
                          tag=tag, nbytes=0, now=sched.now)
        # the request is its own posted receive: the matching engine
        # calls its on_match
        comm.transport.engines[me].post_recv(
            match_source, tag, self._comm_id, req.on_match,
            require_id=_require_id)
        return req

    def co_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *,
                _internal: bool = False):
        """Receive; returns (payload, status)."""
        req = self.irecv(source, tag, _internal=_internal)
        data = yield from req.co_wait()
        status = req.status
        assert status is not None
        return data, status

    recv = blocking(co_recv)

    def co_sendrecv(
        self,
        senddata: bytes,
        dest: int,
        recvsource: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        *,
        _internal: bool = False,
    ):
        """Simultaneous send+recv (deadlock-free pairwise exchange)."""
        rreq = self.irecv(recvsource, recvtag, _internal=_internal)
        sreq = yield from self.co_isend(senddata, dest, sendtag,
                                        _internal=_internal)
        data = yield from rreq.co_wait()
        yield from sreq.co_wait()
        status = rreq.status
        assert status is not None
        return data, status

    sendrecv = blocking(co_sendrecv)
    waitall = staticmethod(waitall)
    co_waitall = staticmethod(co_waitall)

    # ------------------------------------------------------------------
    # collectives (§IV list + NAS requirements)
    # ------------------------------------------------------------------

    def _co_run_collective(self, op: str, gen, **meta):
        """Run one collective (a generator from :mod:`repro.simmpi.collectives`),
        bracketed by coll_begin/coll_end events."""
        rec = self._comm.recorder
        if rec is None:
            return (yield from gen)
        g = self._global_rank(self.rank)
        rec.emit("collective", "coll_begin", g, op=op, **meta)
        out = yield from gen
        rec.emit("collective", "coll_end", g, op=op)
        return out

    def co_barrier(self):
        yield from self._co_run_collective("barrier", _coll.barrier(self))

    barrier = blocking(co_barrier)

    def co_bcast(self, data: bytes | None, root: int = 0, *,
                 nbytes: int | None = None):
        return (yield from self._co_run_collective(
            "bcast", _coll.bcast(self, data, root, nbytes=nbytes),
            root=root,
            bytes=len(data) if data is not None else (nbytes or 0),
        ))

    bcast = blocking(co_bcast)

    def co_gather(self, data: bytes, root: int = 0):
        return (yield from self._co_run_collective(
            "gather", _coll.gather(self, data, root),
            root=root, bytes=len(data),
        ))

    gather = blocking(co_gather)

    def co_scatter(self, chunks: Sequence[bytes] | None, root: int = 0):
        return (yield from self._co_run_collective(
            "scatter", _coll.scatter(self, chunks, root),
            root=root,
            bytes=sum(len(c) for c in chunks) if chunks is not None else 0,
        ))

    scatter = blocking(co_scatter)

    def co_allgather(self, data: bytes):
        return (yield from self._co_run_collective(
            "allgather", _coll.allgather(self, data), bytes=len(data)
        ))

    allgather = blocking(co_allgather)

    def co_alltoall(self, chunks: Sequence[bytes]):
        return (yield from self._co_run_collective(
            "alltoall", _coll.alltoall(self, chunks),
            bytes=sum(len(c) for c in chunks),
        ))

    alltoall = blocking(co_alltoall)

    def co_alltoallv(self, chunks: Sequence[bytes]):
        return (yield from self._co_run_collective(
            "alltoallv", _coll.alltoallv(self, chunks),
            bytes=sum(len(c) for c in chunks),
        ))

    alltoallv = blocking(co_alltoallv)

    def co_reduce(self, data: bytes, op: Callable[[bytes, bytes], bytes],
                  root: int = 0):
        return (yield from self._co_run_collective(
            "reduce", _coll.reduce(self, data, op, root),
            root=root, bytes=len(data),
        ))

    reduce = blocking(co_reduce)

    def co_allreduce(self, data: bytes, op: Callable[[bytes, bytes], bytes]):
        return (yield from self._co_run_collective(
            "allreduce", _coll.allreduce(self, data, op),
            bytes=len(data),
        ))

    allreduce = blocking(co_allreduce)

    def co_reduce_scatter(self, chunks: Sequence[bytes],
                          op: Callable[[bytes, bytes], bytes]):
        return (yield from self._co_run_collective(
            "reduce_scatter", _coll.reduce_scatter(self, chunks, op),
            bytes=sum(len(c) for c in chunks),
        ))

    reduce_scatter = blocking(co_reduce_scatter)

    def co_scan(self, data: bytes, op: Callable[[bytes, bytes], bytes]):
        return (yield from self._co_run_collective(
            "scan", _coll.scan(self, data, op), bytes=len(data)
        ))

    scan = blocking(co_scan)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _next_coll_tag(self, phases: int = 1) -> int:
        """Reserve a tag block for one collective call.

        Every rank must call collectives in the same order (an MPI
        requirement), so the per-rank sequence numbers agree and all
        ranks derive the same tag block.  Group handles count their own
        sequence (group members share collective order; the group's
        distinct comm_id isolates its traffic anyway).
        """
        if self._group_coll_seq is not None:
            seq = self._group_coll_seq
            self._group_coll_seq += phases
            return _COLL_TAG_BASE + seq
        seq = self._comm._coll_seq[self.rank]
        self._comm._coll_seq[self.rank] += phases
        return _COLL_TAG_BASE + seq

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------

    def co_split(self, color: int | None, key: int = 0):
        """MPI_Comm_split: partition this communicator by *color*.

        Collective over this handle's group.  Returns a new handle
        whose ranks are the members sharing this rank's color, ordered
        by (key, old rank); ``color=None`` (MPI_UNDEFINED) participates
        in the call but gets no new communicator.
        """
        import struct

        if color is not None and color < 0:
            raise ValueError(f"color must be non-negative or None, got {color}")
        split_seq = self._next_coll_tag()
        packed = struct.pack(
            "<qq?", -1 if color is None else color, key, color is None
        )
        gathered = yield from _coll.allgather(self, packed)
        entries = []
        for old_rank, blob in enumerate(gathered):
            c, k, undefined = struct.unpack("<qq?", blob)
            if not undefined:
                entries.append((c, k, old_rank))
        if color is None:
            return None
        mine = sorted(
            [(k, r) for c, k, r in entries if c == color]
        )
        members_local = [r for _k, r in mine]
        members_global = [self._global_rank(r) for r in members_local]
        colors = sorted({c for c, _k, _r in entries})
        comm_id = (
            "split",
            self._comm_id,
            split_seq,
            colors.index(color),
        )
        return CommHandle(
            self._comm,
            members_local.index(self.rank),
            members=members_global,
            comm_id=comm_id,
        )

    split = blocking(co_split)

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Non-blocking probe: peek the earliest matching unexpected
        message without consuming it; None if nothing matches."""
        match_source = (
            source if source == ANY_SOURCE else self._global_rank(source)
        )
        engine = self._comm.transport.engines[self._global_rank(self.rank)]
        env = engine.peek(match_source, tag, self._comm_id)
        if env is None:
            return None
        return Status(
            source=self._local_rank(env.src), tag=env.tag, count=len(env.payload)
        )

    def co_probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Probe: wait until a matching message is available (it stays
        queued; a subsequent recv consumes it)."""
        match_source = (
            source if source == ANY_SOURCE else self._global_rank(source)
        )
        engine = self._comm.transport.engines[self._global_rank(self.rank)]
        ready = self._comm.scheduler.event()
        engine.post_probe(match_source, tag, self._comm_id, ready.succeed)
        env = yield ready
        return Status(
            source=self._local_rank(env.src), tag=env.tag, count=len(env.payload)
        )

    probe = blocking(co_probe)

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"peer rank {peer} out of range 0..{self.size - 1}")

    def _check_tag(self, tag: int, internal: bool, allow_any: bool = False) -> None:
        if allow_any and tag == ANY_TAG:
            return
        if internal:
            if tag < 0:
                raise ValueError(f"negative internal tag {tag}")
            return
        if not 0 <= tag < MAX_USER_TAG:
            raise ValueError(f"user tag must be in [0, {MAX_USER_TAG}), got {tag}")
