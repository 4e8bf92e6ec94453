"""Message envelopes and matching wildcards."""

from __future__ import annotations

from typing import Any

#: MPI_ANY_SOURCE / MPI_ANY_TAG wildcards for ``recv``.
ANY_SOURCE = -1
ANY_TAG = -1

#: Tags at or above this value are reserved for internal use
#: (collective phases); user tags must stay below.
MAX_USER_TAG = 1 << 20


class OpaquePayload:
    """Zero-copy framed payload for the simulator: a window on a shared
    buffer.

    The paper's Encrypted_Alltoall materializes p ciphertext buffers on
    *each of p ranks* — distributed over the cluster's memory.  The
    simulator hosts every rank in one process, so naively framing a
    4 MB chunk per destination per rank would need p² × 4 MB (~17 GB at
    p = 64).  Under ``bytework="modeled"`` the frame therefore *shares*
    the sender's buffer *base* and only virtually prepends the nonce and
    appends the tag.  Its body is the window ``base[start:stop]``: all
    of the buffer for a serial message, one chunk of it for a cryptmpi
    frame, so framing a chunk copies nothing either.  Length accounting
    (and hence all timing) sees the full ℓ+28 bytes, fixed when the
    frame is built, while memory holds one plaintext.

    Behaves like an immutable bytes-ish object for the operations the
    stack needs (``len``, slicing, equality via materialization).
    """

    __slots__ = ("prefix", "base", "start", "stop", "suffix", "_len")

    def __init__(self, prefix: bytes, base, suffix: bytes, start: int = 0,
                 stop: int | None = None):
        size = len(base)
        if stop is None:
            stop = size
        if not 0 <= start <= stop <= size:
            raise ValueError(
                f"window [{start}, {stop}) outside a {size}-byte buffer")
        self.prefix = prefix
        self.base = base
        self.start = start
        self.stop = stop
        self.suffix = suffix
        self._len = len(prefix) + (stop - start) + len(suffix)

    def __len__(self) -> int:
        return self._len

    @property
    def body(self):
        """The window's bytes, uncopied: *base* itself when the window
        covers it, else a memoryview of the window."""
        if self.start == 0 and self.stop == len(self.base):
            return self.base
        return memoryview(self.base)[self.start:self.stop]

    def to_bytes(self) -> bytes:
        base = self.base.to_bytes() if isinstance(self.base, OpaquePayload) else self.base
        return b"".join((self.prefix, base[self.start:self.stop], self.suffix))

    def __getitem__(self, index):
        return self.to_bytes()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, OpaquePayload):
            return self.to_bytes() == other.to_bytes()
        if isinstance(other, (bytes, bytearray)):
            return self.to_bytes() == other
        return NotImplemented

    def __hash__(self):
        return hash(self.to_bytes())

    def __repr__(self) -> str:
        return f"<OpaquePayload {len(self)}B>"


def as_bytes(payload) -> bytes:
    """Materialize any payload (bytes-like or OpaquePayload) as bytes."""
    if isinstance(payload, OpaquePayload):
        return payload.to_bytes()
    return bytes(payload)


class Envelope:
    """One in-flight message: routing header plus the payload bytes.

    ``wire_bytes`` is what actually crosses the fabric — for encrypted
    MPI that is ``len(payload)`` where the payload already carries the
    12-byte nonce and 16-byte tag, so no separate accounting is needed;
    it is distinct from ``payload`` only for protocol-level framing.

    ``payload_bytes`` is what *traffic accounting* should attribute to
    the message.  It defaults to ``len(payload)``; collective internals
    that pack index/length headers into the payload (headers that, like
    MPI datatype metadata, never cross the fabric — ``wire_bytes``
    already excludes them) pass the true data size so point-to-point and
    collective byte accounting agree.

    ``link`` is the envelope's place in its route's FIFO delivery chain
    (a :class:`repro.simmpi.transport._RouteLink`), set when the
    transport injects it; copies made by the fault injector and the
    reliability layer have none.

    One is built per message, by keyword; it is a slotted class, with no
    per-instance ``__dict__``.
    """

    __slots__ = ("src", "dst", "tag", "comm_id", "payload", "wire_bytes",
                 "payload_bytes", "info", "link")

    def __init__(self, *, src: int, dst: int, tag: int, comm_id,
                 payload, wire_bytes: int = -1,
                 payload_bytes: int = -1) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.comm_id = comm_id
        self.payload = payload
        self.wire_bytes = len(payload) if wire_bytes < 0 else wire_bytes
        self.payload_bytes = \
            len(payload) if payload_bytes < 0 else payload_bytes
        #: extra metadata for upper layers (receive overhead, rendezvous
        #: state, the reliability layer's delivery id and reseal closure)
        self.info: dict[str, Any] = {}
        self.link = None

    def matches(self, source: int, tag: int) -> bool:
        """Does this envelope satisfy a recv posted for (source, tag)?"""
        if source != ANY_SOURCE and source != self.src:
            return False
        if tag != ANY_TAG and tag != self.tag:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"<Envelope {self.src}->{self.dst} tag={self.tag} "
            f"comm={self.comm_id} {len(self.payload)}B>"
        )
