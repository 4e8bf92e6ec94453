"""EncryptedComm: the per-rank encrypted communicator (§IV).

Every outgoing message is framed as ``nonce || Enc(K, nonce, M)`` —
ℓ+28 bytes on the wire — and every incoming message is parsed and
decrypted, per Algorithm 1.  The configured library's calibrated cost
is charged to the rank's core; under ``bytework="real"`` the AEAD work
is additionally performed on the actual bytes, so tampering anywhere in
the simulated fabric is detected exactly as on the paper's clusters.

One request class, :class:`EncryptedRequest`, serves every encrypted
send and receive, serial or CryptMPI-chunked
(:mod:`repro.encmpi.pipeline`), and a frame that fails to open is
NACKed and its receive re-posted in one place,
:meth:`EncryptedComm._co_nack_and_repost`.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.aead import NONCE_SIZE, WIRE_OVERHEAD, get_aead
from repro.crypto.errors import AuthenticationError
from repro.crypto.nonces import make_nonce_source
from repro.encmpi.config import SecurityConfig
from repro.encmpi.replay import ReplayError, ReplayGuard, counter_of_nonce
from repro.simmpi.resilience import ResilienceExhausted
from repro.models.cryptolib import CryptoLibraryProfile, profile_for_network
from repro.des.process import _Sleep, blocking
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, OpaquePayload
from repro.simmpi.request import Request, Status, co_waitall, waitall
from repro.simmpi.world import RankContext


class EncryptedRequest:
    """An encrypted send or receive; a receive decrypts inside its wait.

    This mirrors the paper's Encrypted_IRecv/MPI_Wait split: the
    non-blocking call returns immediately and the cryptographic work is
    deferred to the wait, keeping the non-blocking property.  One class
    serves serial and CryptMPI (chunked) messages alike:

    - a send waits on its plain request, or on every chunk's;
    - a receive holds the plain receive of its (first) frame.  Its first
      wait runs the serial open (:meth:`_co_open`) or the chunk
      pipeline's :meth:`~repro.encmpi.pipeline.ChunkPipeline._recv_wait`
      once; every later wait returns that plaintext or raises that
      failure again.  ``status`` is the accepted message's, None until
      the open succeeds.

    When the job runs with a :class:`ResiliencePolicy` armed, a frame
    that fails authentication (or is rejected by the replay guard) does
    not fail the wait at once: :meth:`EncryptedComm._co_nack_and_repost`
    reports it to the :class:`~repro.simmpi.resilience.ReliabilityManager`
    as a NACK and re-posts a receive pinned to the retransmitted copy —
    which the sender re-seals with a fresh nonce — until the retry
    budget is exhausted and the policy escalates.
    """

    def __init__(self, owner: "EncryptedComm", kind: str,
                 inners: list[Request], source: int = ANY_SOURCE,
                 tag: int = ANY_TAG):
        self._owner = owner
        self.kind = kind
        #: the plain requests: every frame's for a send, the (first)
        #: frame's receive for a receive
        self._inners = inners
        # requested (source, tag): a serial receive re-posts on them
        self._source = source
        self._tag = tag
        self._status: Status | None = None
        self._result: bytes | None = None
        #: what the first wait raised; every later wait raises it again
        self._exc: Exception | None = None
        self._waited = False

    @property
    def completed(self) -> bool:
        return all(r.completed for r in self._inners)

    @property
    def status(self) -> Status | None:
        return self._status

    @property
    def _scheduler(self):
        return self._owner._scheduler

    def co_wait(self):
        """Wait for completion; a receive returns the decrypted payload.

        Only the first wait on a receive decrypts; later waits return
        its plaintext, or raise its failure again."""
        if self.kind == "send":
            for inner in self._inners:
                yield from inner.co_wait()
            return None
        if not self._waited:
            self._waited = True
            pipe = self._owner._pipe
            try:
                self._result = yield from (
                    self._co_open() if pipe is None else pipe._recv_wait(self))
            except Exception as exc:
                self._exc = exc
                raise
        if self._exc is not None:
            raise self._exc
        return self._result

    wait = blocking(co_wait)

    def _co_open(self):
        """Wait for a serial frame, then authenticate and decrypt it
        (with a NACK and a re-posted receive per failure under
        resilience)."""
        owner = self._owner
        inner = self._inners[0]
        value = yield from inner.co_wait()
        attempts = 0
        while True:
            status = inner.status
            aad = b""
            if status is not None and owner.config.bind_header:
                aad = owner._aad_for_peer(status.source, status.tag)
            try:
                counter = None
                if status is not None:
                    nonce = value.prefix if isinstance(value, OpaquePayload) \
                        else bytes(value[:NONCE_SIZE])
                    counter = owner._replay_screen(status.source, nonce)
                plain = yield from owner._co_decrypt_charged(value, aad)
                if counter is not None:
                    owner._replay_commit(status.source, counter)
                self._status = status
                return plain
            except (AuthenticationError, ReplayError) as exc:
                attempts += 1
                env = inner._match_env
                inner, value = yield from owner._co_nack_and_repost(
                    inner, exc, self._source, self._tag, attempts,
                    f"message from {env.src if env is not None else '?'}")


class EncryptedComm:
    """Encrypted counterpart of :class:`repro.simmpi.comm.CommHandle`.

    Every seal and open costs the library's modeled time for the message
    size, which AES-GCM prices alike for both.  Each communicator looks
    a size up once, in a memo that serial messages, cryptmpi chunks and
    reliability reseals share.  A seal or open on the rank's own core is
    one ``_Sleep`` (none when the time is zero).
    """

    def __init__(
        self,
        ctx: RankContext,
        config: SecurityConfig | None = None,
        *,
        crypto_slowdown: float = 1.0,
    ):
        self.ctx = ctx
        self.config = config or SecurityConfig()
        #: bulk-crypto slowdown for cache-cold payloads (see
        #: calibration.NAS_COLD_CACHE_FACTOR); 1.0 = the Fig. 2/9 curves.
        self.crypto_slowdown = crypto_slowdown
        self.profile: CryptoLibraryProfile = profile_for_network(
            self.config.library,
            ctx._cluster.network.name,
            self.config.key_bits,
        )
        #: message size -> modeled seal or open seconds at
        #: crypto_slowdown (see _crypto_time)
        self._crypto_times: dict[int, float] = {}
        self._aead = get_aead(self.config.key, self.config.backend)
        self._nonces = make_nonce_source(self.config.nonce_strategy, ctx.rank)
        #: job sanitizer (repro.analysis.sanitize.Sanitizer) — when set,
        #: every seal's (key, nonce) pair is checked for reuse, even in
        #: modeled mode where no real AEAD call happens
        self._san = getattr(ctx, "sanitizer", None)
        #: job reliability manager (repro.simmpi.resilience) — when set,
        #: point-to-point sends register a fresh-nonce reseal closure
        #: and failed receives NACK into retransmissions
        self._resilience = getattr(ctx, "resilience", None)
        #: per-source anti-replay windows (populated lazily when
        #: config.replay_window > 0)
        self._replay_guards: dict[int, ReplayGuard] = {}
        #: cryptmpi chunk pipeline — point-to-point sends/receives are
        #: chunk-framed and their seals/opens scheduled on the node's
        #: helper cores when CryptoPlan(mode="cryptmpi"); None (and the
        #: wire format byte-identical to before) under mode="serial"
        self._pipe = None
        if self.config.crypto.pipelined:
            from repro.encmpi.pipeline import ChunkPipeline

            self._pipe = ChunkPipeline(self)
        #: counters for reporting
        self.bytes_encrypted = 0
        self.bytes_decrypted = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.auth_failures = 0
        self.replay_drops = 0

    @property
    def rank(self) -> int:
        return self.ctx.rank

    @property
    def size(self) -> int:
        return self.ctx.size

    @property
    def _scheduler(self):
        return self.ctx._scheduler

    # ------------------------------------------------------------------
    # framing
    # ------------------------------------------------------------------

    def _seal(self, plaintext: bytes, prefix: bytes, aad: bytes, dur: float,
              chunk: int | None = None, window: tuple[int, int] | None = None):
        """Frame one message as ``prefix || nonce || ct`` under a fresh
        nonce, the clear *prefix* (a chunk header, or empty) authenticated
        ahead of *aad*; the caller charges the seal time *dur*.  The
        message is the *window* ``[start, stop)`` of *plaintext* (a
        cryptmpi chunk), or all of it, and is never copied.  Every
        seal — serial, chunk, or reliability-layer reseal — comes here."""
        start, stop = window or (0, len(plaintext))
        nonce = self._nonces.next()
        if self._san is not None:
            self._san.check_nonce(self._aead.key, nonce, self.rank)
        self.bytes_encrypted += stop - start
        rec = self.ctx.recorder
        if rec is not None:
            where = {} if chunk is None else {"chunk": chunk}
            rec.emit("aead", "seal", self.rank, backend=self._aead.name,
                     bytes=stop - start, dur=dur, **where)
        if self.config.crypto.bytework == "real":
            body = plaintext if window is None \
                else memoryview(plaintext)[start:stop]
            return prefix + nonce + self._aead.seal(nonce, body, prefix + aad)
        # Modeled: time already charged; ship the plaintext inside a
        # zero-copy frame whose length accounting is the real ℓ+28 (see
        # OpaquePayload — this keeps p² fan-outs from materializing p²
        # ciphertext buffers in the single simulator process).
        return OpaquePayload(prefix + nonce, plaintext, bytes(16), start, stop)

    def _open(self, wire, prefix: bytes, aad: bytes, dur: float,
              chunk: int | None = None) -> bytes:
        """Open a ``prefix || nonce || ct`` frame sealed by :meth:`_seal`;
        the caller has checked the prefix and charged the open time.  A
        modeled frame's plaintext is its uncopied window
        (:attr:`OpaquePayload.body`)."""
        start = len(prefix) + NONCE_SIZE
        plain_len = max(0, len(wire) - len(prefix) - WIRE_OVERHEAD)
        try:
            if len(wire) < len(prefix) + WIRE_OVERHEAD:
                raise AuthenticationError("message shorter than nonce + tag")
            if isinstance(wire, OpaquePayload):
                # Zero-copy modeled frame: the plaintext rides inside.
                plain = wire.body
            elif self.config.crypto.bytework == "real":
                plain = self._aead.open(wire[len(prefix):start], wire[start:],
                                        prefix + aad)
            else:
                plain = wire[start:-16]
        except AuthenticationError:
            self._record_auth_fail(plain_len)
            raise
        self.bytes_decrypted += plain_len
        rec = self.ctx.recorder
        if rec is not None:
            where = {} if chunk is None else {"chunk": chunk}
            rec.emit("aead", "open", self.rank, backend=self._aead.name,
                     bytes=plain_len, dur=dur, **where)
        return plain

    def _crypto_time(self, size: int) -> float:
        """Modeled seconds one core spends sealing, or opening, a
        *size*-byte message: AES-GCM charges both alike (§V-A), so
        :meth:`CryptoLibraryProfile.encrypt_time` prices either.  Looked
        up once per size; serial messages, chunks and reseals share the
        memo, and ``crypto_slowdown`` is fixed at construction."""
        dur = self._crypto_times.get(size)
        if dur is None:
            dur = self._crypto_times[size] = self.profile.encrypt_time(
                size, self.crypto_slowdown)
        return dur

    def _co_encrypt_charged(self, plaintext: bytes, aad: bytes = b""):
        """Charge virtual encryption time and frame the message."""
        dur = self._crypto_time(len(plaintext))
        if dur:
            yield _Sleep(dur)
        return self._seal(plaintext, b"", aad, dur)

    def _co_decrypt_charged(self, wire, aad: bytes = b""):
        """Charge virtual decryption time and open the frame."""
        dur = self._crypto_time(self._plaintext_len(wire))
        if dur:
            yield _Sleep(dur)
        return self._open(wire, b"", aad, dur)

    _decrypt_charged = blocking(_co_decrypt_charged)

    def _record_auth_fail(self, plain_len: int) -> None:
        self.auth_failures += 1
        rec = self.ctx.recorder
        if rec is not None:
            rec.emit("aead", "auth_fail", self.rank, bytes=plain_len)

    def _replay_screen(self, source: int, nonce: bytes) -> int | None:
        """Sliding-window anti-replay check, run before any decrypt work.

        Reads the sequence counter out of the (counter-strategy) nonce
        and screens it against the per-source :class:`ReplayGuard`.  A
        rejected message surfaces as :class:`ReplayError` and as a
        ``replay_drop`` trace event.  Returns the counter, which the
        caller hands to :meth:`_replay_commit` once the frame's tag has
        verified; None (nothing to commit) unless
        ``config.replay_window > 0``, or when the frame is too short to
        carry a nonce (decryption then fails authentication).
        """
        if self.config.replay_window <= 0 or len(nonce) < NONCE_SIZE:
            return None
        counter = counter_of_nonce(nonce[:NONCE_SIZE])
        guard = self._replay_guards.get(source)
        if guard is None:
            guard = self._replay_guards[source] = ReplayGuard(self.config.replay_window)
        try:
            guard.screen(counter)
        except ReplayError:
            self.replay_drops += 1
            rec = self.ctx.recorder
            if rec is not None:
                rec.emit("aead", "replay_drop", self.rank, src=source,
                         counter=counter)
            raise
        return counter

    def _replay_commit(self, source: int, counter: int) -> None:
        """Accept a screened counter whose frame authenticated."""
        self._replay_guards[source].commit(counter)

    def _co_nack_and_repost(self, inner: Request, exc: Exception,
                            source: int, tag: int, attempts: int, what: str,
                            *, internal: bool = False):
        """NACK the frame that *inner* received, which failed with *exc*
        on the receive's *attempts*-th try, and re-post the receive on
        (*source*, *tag*), pinned to the retransmission; return the new
        ``(receive, frame)``.  The serial open, CryptMPI's frame-0
        authentication and every chunk open come here.

        Raises *exc* without resilience or when the policy drops the
        frame, and :class:`ResilienceExhausted` naming *what* failed
        when the policy escalates with ``"fail"``.
        """
        mgr = self._resilience
        if mgr is None:
            raise exc
        decision = mgr.on_recv_failure(
            inner._match_env, self.rank, attempts,
            reason="replay" if isinstance(exc, ReplayError) else "auth_fail",
        )
        if decision.outcome == "fail":
            raise ResilienceExhausted(
                f"rank {self.rank}: {what} still failing after {attempts} "
                f"receive attempts (escalation='fail')"
            ) from exc
        if decision.outcome == "drop":
            raise exc
        inner = self.ctx.comm.irecv(source, tag, _internal=internal,
                                    _require_id=decision.require_id)
        return inner, (yield from inner.co_wait())

    def _make_reseal(self, plaintext: bytes, aad: bytes):
        """Closure the reliability layer calls to re-frame a message.

        Every invocation draws a **fresh nonce** — so retransmissions
        never reuse a (key, nonce) pair (the sanitizer's ledger stays
        clean) and the receiver's ReplayGuard sees a new counter.  The
        seal's CPU time is returned, not charged here: the reliability
        layer folds it into the retransmission delay (the re-seal runs
        on the sender's progress machinery, off the rank's critical
        path).
        """

        def reseal():
            dur = self._crypto_time(len(plaintext))
            return self._seal(plaintext, b"", aad, dur), dur

        return reseal

    def _plaintext_len(self, wire: bytes) -> int:
        return max(0, len(wire) - WIRE_OVERHEAD)

    def _wire_bytes(self, plaintext_len: int) -> int:
        """Fabric bytes for an ℓ-byte message: ℓ + 28 (Algorithm 1)."""
        return plaintext_len + WIRE_OVERHEAD

    def _aad_for_peer(self, sender: int, tag: int) -> bytes:
        """Header AAD (bind_header extension, point-to-point only):
        authenticates who sent the message and under which tag."""
        if not self.config.bind_header:
            return b""
        return sender.to_bytes(4, "big") + tag.to_bytes(8, "big", signed=True)

    # ------------------------------------------------------------------
    # point-to-point (§IV: Send/Recv/ISend/IRecv/Wait/Waitall)
    # ------------------------------------------------------------------

    def co_isend(self, data: bytes, dest: int, tag: int = 0):
        """Encrypted_ISend: seal (chunked under a cryptmpi plan), then
        post the send; returns a request to wait on."""
        if self._pipe is not None:
            return (yield from self._pipe.isend(bytes(data), dest, tag))
        data = bytes(data)
        aad = self._aad_for_peer(self.rank, tag)
        wire = yield from self._co_encrypt_charged(data, aad)
        self.messages_sent += 1
        reseal = None
        if self._resilience is not None:
            reseal = self._make_reseal(data, aad)
        inner = yield from self.ctx.comm.co_isend(
            wire, dest, tag, wire_bytes=self._wire_bytes(len(data)),
            _reseal=reseal,
        )
        return EncryptedRequest(self, "send", [inner])

    isend = blocking(co_isend)

    def co_send(self, data: bytes, dest: int, tag: int = 0):
        req = yield from self.co_isend(data, dest, tag)
        yield from req.co_wait()

    send = blocking(co_send)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Encrypted_IRecv: post the (first) frame's receive; the wait
        decrypts."""
        if self._pipe is not None:
            return self._pipe.irecv(source, tag)
        inner = self.ctx.comm.irecv(source, tag)
        self.messages_received += 1
        return EncryptedRequest(self, "recv", [inner], source, tag)

    def co_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Receive and decrypt; returns (plaintext, status)."""
        req = self.irecv(source, tag)
        data = yield from req.co_wait()
        return data, req.status

    recv = blocking(co_recv)
    waitall = staticmethod(waitall)
    co_waitall = staticmethod(co_waitall)

    def co_sendrecv(
        self,
        senddata: bytes,
        dest: int,
        recvsource: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ):
        rreq = self.irecv(recvsource, recvtag)
        sreq = yield from self.co_isend(senddata, dest, sendtag)
        data = yield from rreq.co_wait()
        yield from sreq.co_wait()
        return data, rreq.status

    sendrecv = blocking(co_sendrecv)

    # ------------------------------------------------------------------
    # collectives (§IV: Bcast, Allgather, Alltoall, Alltoallv)
    # ------------------------------------------------------------------

    def co_bcast(self, data: bytes | None, root: int = 0, *,
                 nbytes: int | None = None):
        """Encrypted_Bcast: the root encrypts once, every other rank
        decrypts once; the ordinary bcast moves nonce||ciphertext."""
        if self.ctx.rank == root:
            assert data is not None
            wire = yield from self._co_encrypt_charged(bytes(data))
            yield from self.ctx.comm.co_bcast(wire, root)
            return bytes(data)
        if nbytes is None:
            raise ValueError("non-root ranks must pass nbytes")
        received = yield from self.ctx.comm.co_bcast(
            None, root, nbytes=nbytes + WIRE_OVERHEAD
        )
        return (yield from self._co_decrypt_charged(received))

    bcast = blocking(co_bcast)

    def co_allgather(self, data: bytes):
        """Encrypted_Allgather: encrypt own block, allgather, decrypt all."""
        wire = yield from self._co_encrypt_charged(bytes(data))
        gathered = yield from self.ctx.comm.co_allgather(wire)
        # Like Algorithm 1's alltoall, every received block — including
        # the rank's own — goes through decryption.
        out = []
        for block in gathered:
            out.append((yield from self._co_decrypt_charged(block)))
        return out

    allgather = blocking(co_allgather)

    def _co_sealed_exchange(self, chunks: Sequence[bytes], co_exchange):
        """Algorithm 1 around the plain exchange *co_exchange*: encrypt
        every chunk with a fresh nonce, exchange, decrypt every received
        chunk."""
        enc = []
        for c in chunks:
            enc.append((yield from self._co_encrypt_charged(bytes(c))))
        received = yield from co_exchange(enc)
        out = []
        for block in received:
            out.append((yield from self._co_decrypt_charged(block)))
        return out

    def co_alltoall(self, chunks: Sequence[bytes]):
        """Encrypted_Alltoall, exactly Algorithm 1."""
        return (yield from self._co_sealed_exchange(
            chunks, self.ctx.comm.co_alltoall))

    alltoall = blocking(co_alltoall)

    def co_alltoallv(self, chunks: Sequence[bytes]):
        """Encrypted_Alltoallv: Encrypted_Alltoall over blocks of
        unequal size, traced as the plain ``alltoallv``."""
        return (yield from self._co_sealed_exchange(
            chunks, self.ctx.comm.co_alltoallv))

    alltoallv = blocking(co_alltoallv)
