"""Multi-core encryption — the paper's closing observation made real.

§V-C: "To fully utilize the network links whose throughput is
significantly higher than the single thread encryption-decryption
throughput, one will almost have no choice but to parallelize
encryption using multiple threads, or accelerate it via GPU."

:class:`ChunkPipeline` is that parallel variant, following CryptMPI: a
``CryptoPlan(mode="cryptmpi")`` point-to-point message is split into
fixed-size chunks, each sealed independently under its own nonce (so,
cryptographically, a sequence of AEAD messages), and the seals and
opens run on the node's idle helper cores
(:class:`repro.models.cpu.CoreAllocator`) while earlier chunks are
already on the wire.  Its send and receive paths are generators, like
every other blocking operation, so cryptmpi plans run on either rank
runtime, and they hand back the same
:class:`~repro.encmpi.context.EncryptedRequest` as serial messages: a
chunked send waits on every chunk's request, and a chunked receive runs
:meth:`ChunkPipeline._recv_wait` in its first wait.

Its closed form is the analytical predictor's
(:func:`repro.models.predict.predict` with a cryptmpi plan), which
follows this schedule chunk by chunk: chunk i's seal waits for chunk
i - cap's on the helpers, and the chunk flows share the pair's stream
capacity.
"""

from __future__ import annotations

from repro.crypto.aead import NONCE_SIZE, WIRE_OVERHEAD
from repro.crypto.errors import AuthenticationError
from repro.des.process import _Sleep
from repro.encmpi.context import EncryptedRequest
from repro.encmpi.replay import ReplayError
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, OpaquePayload
from repro.simmpi.request import Status


#: Per-chunk framing header of the cryptmpi wire protocol:
#: ``u32 seq || u32 total_chunks || u32 chunk_index`` — authenticated
#: as AAD in ``bytework="real"`` so a forged sequence, chunk count, or
#: reordered index fails the tag check, exactly like a tampered
#: ciphertext.  ``seq`` is a per-sender message sequence number; chunks
#: past the first travel on the internal tag ``CHUNK_TAG_BASE + seq``
#: so interleaved multi-chunk messages on one (source, tag) channel
#: (e.g. a window of isends) can never cross-match.  Modeled frames
#: carry no tag, so under ``bytework="modeled"`` the header is trusted
#: as delivered.
HEADER_SIZE = 12

#: Internal tag space of sibling chunk frames — far above the
#: collective phase tags (which grow upward from MAX_USER_TAG).
CHUNK_TAG_BASE = 1 << 40


# ----------------------------------------------------------------------
# CryptMPI mode: chunked sends scheduled on the node's helper cores
# ----------------------------------------------------------------------


def _chunk_header(seq: int, total: int, index: int) -> bytes:
    return (
        (seq & 0xFFFFFFFF).to_bytes(4, "big")
        + total.to_bytes(4, "big")
        + index.to_bytes(4, "big")
    )


def _parse_chunk_header(wire) -> tuple[int, int, int]:
    """``(seq, total_chunks, chunk_index)`` of one chunk frame."""
    hdr = wire.prefix[:HEADER_SIZE] if isinstance(wire, OpaquePayload) \
        else bytes(wire[:HEADER_SIZE])
    if len(hdr) < HEADER_SIZE:
        raise AuthenticationError("chunk frame shorter than its header")
    return (
        int.from_bytes(hdr[:4], "big"),
        int.from_bytes(hdr[4:8], "big"),
        int.from_bytes(hdr[8:], "big"),
    )


def _frame_nonce(wire) -> bytes:
    """The nonce of one chunk frame (what the replay screen reads)."""
    if isinstance(wire, OpaquePayload):
        return wire.prefix[HEADER_SIZE:]
    return bytes(wire[HEADER_SIZE:HEADER_SIZE + NONCE_SIZE])


def _tiled_buffer(frames):
    """The buffer that *frames*, in index order, are consecutive windows
    on from offset 0 to its end; None when any frame was materialized
    (real bytework, a corrupted frame), is a window on another buffer,
    or leaves a gap or an overlap."""
    base, pos = getattr(frames[0], "base", None), 0
    for frame in frames:
        if not (isinstance(frame, OpaquePayload) and frame.base is base
                and frame.start == pos):
            return None
        pos = frame.stop
    return base if pos == len(base) else None


class ChunkPipeline:
    """CryptMPI-style pipelined encryption for point-to-point traffic.

    Large sends split into ``chunk_bytes`` pieces, each sealed under its
    own nonce.  Seal (and open) time is charged to the node's helper
    cores via :class:`repro.models.cpu.CoreAllocator` — the rank's own
    core only frames and injects — so a sealed chunk enters the
    transport as soon as it is ready and encryption of later chunks
    overlaps the wire transfer of earlier ones, while the NIC remains
    the shared max-min-fair bottleneck.  On a node with no idle helpers
    (every core resident to a rank, or ``helper_cores=0``) the pipeline
    degrades to *serial-chunked*: the rank seals each chunk on its own
    core and still overlaps the chunk's transfer with the next seal.

    Wire protocol, per chunk::

        u32 seq || u32 total_chunks || u32 chunk_index || nonce(12) || ct(len+16)

    so a chunked ℓ-byte message costs ``nchunks * (12 + 28)`` extra
    fabric bytes over the serial frame.  The first chunk travels on the
    user's (source, tag) channel; siblings travel on the internal tag
    ``CHUNK_TAG_BASE + seq`` learned from that frame's header, so
    interleaved multi-chunk messages (a window of isends on one channel)
    can never cross-match.  Route-FIFO delivery plus posted-order
    matching guarantee index order within a message.  Collectives are
    not chunked — CryptMPI pipelines point-to-point transfers, and the
    serial collectives keep their golden traces.

    As in an MPI library, a chunk is a window ``[start, stop)`` of the
    sender's buffer, never a copy: real bytework seals a memoryview of
    it, and a modeled frame carries the window itself
    (:class:`~repro.simmpi.message.OpaquePayload`).  The receiver hands
    back the sender's buffer when the frames it accepted tile it in
    index order, and joins the opened chunks otherwise.

    :meth:`isend`, :meth:`_recv_wait` and :meth:`_open_chunk_reliable`
    are generators: the rank waits on helper-core events and on chunk
    receives with their ``co_wait``, under either rank runtime.
    Only frame 0's receive is posted up front — its header tells the
    receiver how many siblings to expect, so the remaining receives (and
    the helper-core opens) are posted inside the wait, preserving the
    non-blocking property of Encrypted_IRecv just like the serial path.
    """

    def __init__(self, enc_comm):
        self.enc = enc_comm
        plan = enc_comm.config.crypto
        self.plan = plan
        self.chunk_bytes = plan.chunk_bytes
        #: per-sender message sequence; names the internal tag sibling
        #: chunks travel on, so windowed isends never cross-match
        self._seq = 0

    def _helper_cap(self, alloc) -> int:
        """Helper cores this operation may occupy at once."""
        if self.plan.helper_cores is None:
            return alloc.helpers
        return min(self.plan.helper_cores, alloc.helpers)

    def _split(self, size: int) -> list[tuple[int, int]]:
        """The chunk windows ``[start, stop)`` of a *size*-byte message."""
        cb = self.chunk_bytes
        return [(off, min(off + cb, size))
                for off in range(0, size, cb)] or [(0, 0)]

    # -- sender ----------------------------------------------------------

    def isend(self, data: bytes, dest: int, tag: int = 0):
        enc = self.enc
        data = bytes(data)
        # Each chunk is a window on the sender's buffer: no copy.
        windows = self._split(len(data))
        total = len(windows)
        seq = self._seq
        self._seq += 1
        aad_tail = enc._aad_for_peer(enc.rank, tag)
        alloc = enc.ctx.node_alloc
        cap = self._helper_cap(alloc)
        enc.messages_sent += 1
        rec = enc.ctx.recorder
        if rec is not None:
            rec.emit("encmpi", "chunked_send", enc.rank, dest=dest, tag=tag,
                     bytes=len(data), chunks=total, helpers=cap)
        durs = [enc._crypto_time(stop - start) for start, stop in windows]
        events = []
        if cap > 0:
            # Submit every seal now; the after= chain caps this
            # operation at `cap` concurrent helpers (chunk i waits for
            # chunk i-cap) while the pool itself arbitrates FIFO against
            # other operations on the node.
            for i, (start, stop) in enumerate(windows):
                after = events[i - cap] if i >= cap else None
                events.append(alloc.submit(
                    durs[i], rank=enc.rank, work="seal", nbytes=stop - start,
                    chunk=i, after=after,
                ))
        sib_tag = CHUNK_TAG_BASE + (seq & 0xFFFFFFFF)
        inners = []
        for i, window in enumerate(windows):
            if cap > 0:
                yield from events[i].co_wait()  # helper work never fails
            elif durs[i]:
                yield _Sleep(durs[i])  # serial-chunked fallback
            wire = self._seal_chunk(seq, i, total, data, window, aad_tail,
                                    durs[i])
            reseal = None
            if enc._resilience is not None:
                reseal = self._make_chunk_reseal(seq, i, total, data, window,
                                                 aad_tail)
            inners.append((yield from enc.ctx.comm.co_isend(
                wire, dest, tag if i == 0 else sib_tag,
                wire_bytes=HEADER_SIZE + enc._wire_bytes(window[1] - window[0]),
                _internal=i > 0,
                _reseal=reseal,
            )))
        return EncryptedRequest(enc, "send", inners)

    def _seal_chunk(self, seq: int, index: int, total: int, data: bytes,
                    window: tuple[int, int], aad_tail: bytes, dur: float):
        """Frame chunk *index*, the *window* ``[start, stop)`` of *data*
        (byte work only — time already charged)."""
        return self.enc._seal(data, _chunk_header(seq, total, index),
                              aad_tail, dur, index, window)

    def _make_chunk_reseal(self, seq: int, index: int, total: int,
                           data: bytes, window: tuple[int, int],
                           aad_tail: bytes):
        """Fresh-nonce re-framing of one chunk for the reliability layer."""
        enc = self.enc

        def reseal():
            dur = enc._crypto_time(window[1] - window[0])
            return self._seal_chunk(seq, index, total, data, window,
                                    aad_tail, dur), dur

        return reseal

    # -- receiver --------------------------------------------------------

    def irecv(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> EncryptedRequest:
        """Post frame 0's receive; the wait does the rest."""
        enc = self.enc
        enc.messages_received += 1
        return EncryptedRequest(enc, "recv", [enc.ctx.comm.irecv(source, tag)],
                                source, tag)

    def _recv_wait(self, req: EncryptedRequest):
        """The first wait on a chunked receive: authenticate frame 0,
        post the siblings its header announces, open every chunk and
        return the message."""
        enc = self.enc
        comm = enc.ctx.comm
        alloc = enc.ctx.node_alloc
        cap = self._helper_cap(alloc)
        first = req._inners[0]
        wire0 = yield from first.co_wait()
        src, tag = first.status.source, first.status.tag
        # Frame 0's header sizes and routes every sibling receive, so
        # it must authenticate before it is read.
        first, wire0 = yield from self._authentic_first(first, wire0,
                                                        src, tag)
        seq, total, _ = _parse_chunk_header(wire0)
        if total < 1:
            raise AuthenticationError(f"bad chunk count {total} in frame")
        # Siblings travel on the message's own internal tag (learned
        # from the first frame's header), pinned to the matched source;
        # route FIFO delivers them to these receives in index order.
        sib_tag = CHUNK_TAG_BASE + seq
        inners = [first] + [comm.irecv(src, sib_tag, _internal=True)
                            for _ in range(total - 1)]
        open_events: list = []
        wires: list = [None] * total
        # the frame each chunk opened from (a re-posted one after a NACK)
        # and its plaintext
        accepted: list = [None] * total
        plains: list = [None] * total
        for i in range(total):
            wire = wires[i] = (yield from inners[i].co_wait()) if i else wire0
            plain_len = max(0, len(wire) - HEADER_SIZE - WIRE_OVERHEAD)
            dur = enc._crypto_time(plain_len)
            if cap > 0:
                # Schedule the open the moment the chunk arrives; it
                # runs on a helper while later chunks are still in
                # flight (and while the sender is still sealing).
                after = open_events[i - cap] if i >= cap else None
                open_events.append(alloc.submit(
                    dur, rank=enc.rank, work="open", nbytes=plain_len,
                    chunk=i, after=after,
                ))
            else:
                if dur:
                    yield _Sleep(dur)
                accepted[i], plains[i] = yield from self._open_chunk_reliable(
                    inners[i], wire, src, tag, seq, i, total, dur)
        if cap > 0:
            for i in range(total):
                yield from open_events[i].co_wait()  # helper work never fails
                plain_len = max(0, len(wires[i]) - HEADER_SIZE - WIRE_OVERHEAD)
                dur = enc._crypto_time(plain_len)
                accepted[i], plains[i] = yield from self._open_chunk_reliable(
                    inners[i], wires[i], src, tag, seq, i, total, dur)
        data = _tiled_buffer(accepted)
        if data is None:
            data = b"".join(plains)
        # Like the serial path, count reflects delivered frame bytes.
        req._status = Status(source=src, tag=tag,
                             count=sum(len(w) for w in wires))
        return data

    def _authentic_first(self, inner, wire, src: int, tag: int):
        """Frame 0 and its receive once the frame's tag verifies and
        its nonce counter passes the replay screen.

        Both checks have no side effect when the frame passes; the
        chunk's open later does the counting and commits the counter.
        A frame that fails authentication counts one failure; a stale
        authentic copy (a replay of an earlier message's frame 0) counts
        one replay drop.  Either takes chunk 0's NACK + re-post path, or
        raises without resilience.
        """
        enc = self.enc
        attempts = 0
        while True:
            if not self._header_authentic(wire, src, tag):
                enc._record_auth_fail(
                    max(0, len(wire) - HEADER_SIZE - WIRE_OVERHEAD))
                exc = AuthenticationError(
                    f"chunk frame 0 from rank {src} (tag {tag}) failed "
                    f"authentication; its header was not trusted")
            else:
                nonce = _frame_nonce(wire)
                try:
                    enc._replay_screen(src, nonce)
                except ReplayError as err:
                    exc = err
                else:
                    return inner, wire
            attempts += 1
            inner, wire = yield from enc._co_nack_and_repost(
                inner, exc, src, tag, attempts, f"chunk 0 from {src}")

    def _header_authentic(self, wire, src: int, tag: int) -> bool:
        """Whether a chunk frame's tag verifies over its clear header.

        Pure: no counter, trace event or replay-window change.  Modeled
        frames carry no tag, so their header is trusted.
        """
        enc = self.enc
        if isinstance(wire, OpaquePayload) or enc.config.crypto.bytework != "real":
            return True
        if len(wire) < HEADER_SIZE + WIRE_OVERHEAD:
            return False
        start = HEADER_SIZE + NONCE_SIZE
        try:
            enc._aead.open(wire[HEADER_SIZE:start], wire[start:],
                           wire[:HEADER_SIZE] + enc._aad_for_peer(src, tag))
        except AuthenticationError:
            return False
        return True

    def _open_chunk_reliable(self, inner, wire, src: int, tag: int,
                             seq: int, index: int, total: int, dur: float):
        """Open one chunk; NACK + pinned re-post on failure (resilience).
        Returns the frame that opened and its plaintext."""
        channel = tag if index == 0 else CHUNK_TAG_BASE + seq
        attempts = 0
        while True:
            try:
                return wire, self._open_chunk(wire, src, tag, seq, index,
                                              total, dur)
            except (AuthenticationError, ReplayError) as exc:
                attempts += 1
                inner, wire = yield from self.enc._co_nack_and_repost(
                    inner, exc, src, channel, attempts,
                    f"chunk {index} from {src}", internal=index > 0)
                # Retry decrypt runs on the rank's core — the helper
                # schedule for the happy path is already spent.
                if dur:
                    yield _Sleep(dur)

    def _open_chunk(self, wire, src: int, tag: int, seq: int, index: int,
                    total: int, dur: float) -> bytes:
        """Byte-open one chunk frame (time must already be charged)."""
        enc = self.enc
        got_seq, got_total, got_index = _parse_chunk_header(wire)
        if (got_total != total or got_index != index
                or got_seq != seq & 0xFFFFFFFF):
            enc._record_auth_fail(
                max(0, len(wire) - HEADER_SIZE - WIRE_OVERHEAD))
            raise AuthenticationError(
                f"chunk framing mismatch: expected {index}/{total} of "
                f"message {seq}, got {got_index}/{got_total} of "
                f"message {got_seq}"
            )
        counter = enc._replay_screen(src, _frame_nonce(wire))
        plain = enc._open(wire, _chunk_header(seq, total, index),
                          enc._aad_for_peer(src, tag), dur, index)
        if counter is not None:
            enc._replay_commit(src, counter)
        return plain
