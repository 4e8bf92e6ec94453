"""EncryptedComm: the per-rank encrypted communicator (§IV).

Every outgoing message is framed as ``nonce || Enc(K, nonce, M)`` —
ℓ+28 bytes on the wire — and every incoming message is parsed and
decrypted, per Algorithm 1.  The configured library's calibrated cost
is charged to the rank's core; in ``crypto_mode="real"`` the AEAD work
is additionally performed on the actual bytes, so tampering anywhere in
the simulated fabric is detected exactly as on the paper's clusters.
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
from repro.des.process import blocking
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, OpaquePayload
from repro.simmpi.request import Request, co_waitall, waitall
from repro.simmpi.world import RankContext


class EncryptedRequest:
    """Wraps a plain request; decryption happens inside ``wait``.

    This mirrors the paper's Encrypted_IRecv/MPI_Wait split: the
    non-blocking call returns immediately and the cryptographic work is
    deferred to the wait, keeping the non-blocking property.

    When the job runs with a :class:`ResiliencePolicy` armed, a receive
    whose frame fails authentication (or is rejected by the replay
    guard) does not raise immediately: the failure is reported to the
    :class:`~repro.simmpi.resilience.ReliabilityManager` as a NACK, and
    the wait re-posts a receive pinned to the retransmitted copy —
    which the sender re-seals with a fresh nonce — until the retry
    budget is exhausted and the policy escalates.
    """

    def __init__(self, inner: Request, owner: "EncryptedComm", kind: str,
                 source: int | None = None, tag: int | None = None):
        self._inner = inner
        self._owner = owner
        self.kind = kind
        # requested (source, tag) — needed to re-post under resilience
        self._source = source
        self._tag = tag
        self._result: bytes | None = None
        self._waited = False

    @property
    def completed(self) -> bool:
        return self._inner.completed

    @property
    def status(self):
        return self._inner.status

    @property
    def _scheduler(self):
        return self._owner._scheduler

    def co_wait(self):
        """Wait for completion; a receive returns the decrypted payload."""
        if self.kind == "send":
            yield from self._inner.co_wait()
            return None
        if self._waited:
            return self._result
        self._waited = True
        owner = self._owner
        value = yield from self._inner.co_wait()
        attempts = 0
        while True:
            status = self._inner.status
            aad = b""
            if status is not None and owner.config.bind_header:
                aad = owner._aad_for_peer(status.source, status.tag)
            try:
                counter = None
                if status is not None:
                    nonce = value.prefix if isinstance(value, OpaquePayload) \
                        else bytes(value[:NONCE_SIZE])
                    counter = owner._replay_screen(status.source, nonce)
                self._result = yield from owner._co_decrypt_charged(value, aad)
                if counter is not None:
                    owner._replay_commit(status.source, counter)
                return self._result
            except (AuthenticationError, ReplayError) as exc:
                mgr = owner._resilience
                if mgr is None:
                    raise
                attempts += 1
                env = getattr(self._inner, "_match_env", None)
                decision = mgr.on_recv_failure(
                    env, owner.rank, attempts,
                    reason="replay" if isinstance(exc, ReplayError)
                    else "auth_fail",
                )
                if decision.outcome == "fail":
                    src = env.src if env is not None else "?"
                    raise ResilienceExhausted(
                        f"rank {owner.rank}: message from {src} still "
                        f"failing after {attempts} receive attempts "
                        f"(escalation='fail')"
                    ) from exc
                if decision.outcome == "drop":
                    raise
                self._inner = owner.ctx.comm.irecv(
                    self._source if self._source is not None else ANY_SOURCE,
                    self._tag if self._tag is not None else ANY_TAG,
                    _require_id=decision.require_id,
                )
                value = yield from self._inner.co_wait()

    wait = blocking(co_wait)


class EncryptedComm:
    """Encrypted counterpart of :class:`repro.simmpi.comm.CommHandle`."""

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
              chunk: int | None = None):
        """Frame one message as ``prefix || nonce || ct`` under a fresh
        nonce, the clear *prefix* (a chunk header, or empty) authenticated
        ahead of *aad*; the caller charges the seal time *dur*.  Every
        seal — serial, chunk, or reliability-layer reseal — comes here."""
        nonce = self._nonces.next()
        if self._san is not None:
            self._san.check_nonce(self._aead.key, nonce, self.rank)
        self.bytes_encrypted += len(plaintext)
        rec = self.ctx.recorder
        if rec is not None:
            where = {} if chunk is None else {"chunk": chunk}
            rec.emit("aead", "seal", self.rank, backend=self._aead.name,
                     bytes=len(plaintext), dur=dur, **where)
        if self.config.crypto_mode == "real":
            return prefix + nonce + self._aead.seal(nonce, plaintext,
                                                    prefix + aad)
        # Modeled: time already charged; ship the plaintext inside a
        # zero-copy frame whose length accounting is the real ℓ+28 (see
        # OpaquePayload — this keeps p² fan-outs from materializing p²
        # ciphertext buffers in the single simulator process).
        return OpaquePayload(prefix + nonce, plaintext, bytes(16))

    def _open(self, wire, prefix: bytes, aad: bytes, dur: float,
              chunk: int | None = None) -> bytes:
        """Open a ``prefix || nonce || ct`` frame sealed by :meth:`_seal`;
        the caller has checked the prefix and charged the open time."""
        start = len(prefix) + NONCE_SIZE
        plain_len = max(0, len(wire) - len(prefix) - WIRE_OVERHEAD)
        try:
            if len(wire) < len(prefix) + WIRE_OVERHEAD:
                raise AuthenticationError("message shorter than nonce + tag")
            if isinstance(wire, OpaquePayload):
                # Zero-copy modeled frame: the plaintext rides inside.
                plain = wire.base
            elif self.config.crypto_mode == "real":
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

    def _co_encrypt_charged(self, plaintext: bytes, aad: bytes = b""):
        """Charge virtual encryption time and frame the message."""
        dur = self.profile.encrypt_time(len(plaintext), self.crypto_slowdown)
        yield from self.ctx.co_compute(dur)
        return self._seal(plaintext, b"", aad, dur)

    def _co_decrypt_charged(self, wire, aad: bytes = b""):
        """Charge virtual decryption time and open the frame."""
        plain_len = self._plaintext_len(wire)
        dur = self.profile.decrypt_time(plain_len, self.crypto_slowdown)
        yield from self.ctx.co_compute(dur)
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
            dur = self.profile.encrypt_time(len(plaintext), self.crypto_slowdown)
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
        return EncryptedRequest(inner, self, "send")

    isend = blocking(co_isend)

    def co_send(self, data: bytes, dest: int, tag: int = 0):
        req = yield from self.co_isend(data, dest, tag)
        yield from req.co_wait()

    send = blocking(co_send)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        if self._pipe is not None:
            return self._pipe.irecv(source, tag)
        inner = self.ctx.comm.irecv(source, tag)
        self.messages_received += 1
        return EncryptedRequest(inner, self, "recv", source=source, tag=tag)

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

    def co_alltoall(self, chunks: Sequence[bytes]):
        """Encrypted_Alltoall, exactly Algorithm 1: encrypt every chunk
        with a fresh nonce, exchange, decrypt every received chunk."""
        enc = []
        for c in chunks:
            enc.append((yield from self._co_encrypt_charged(bytes(c))))
        received = yield from self.ctx.comm.co_alltoall(enc)
        out = []
        for block in received:
            out.append((yield from self._co_decrypt_charged(block)))
        return out

    alltoall = blocking(co_alltoall)

    def co_alltoallv(self, chunks: Sequence[bytes]):
        enc = []
        for c in chunks:
            enc.append((yield from self._co_encrypt_charged(bytes(c))))
        received = yield from self.ctx.comm.co_alltoallv(enc)
        out = []
        for block in received:
            out.append((yield from self._co_decrypt_charged(block)))
        return out

    alltoallv = blocking(co_alltoallv)
