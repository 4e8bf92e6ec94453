"""Fault injection × structured tracing: attacks leave explicit events.

The point of the trace layer for security work: a corrupted envelope
must surface as an ``auth_fail`` event and a duplicated one as a
``replay_drop`` — not just as an exception somewhere in a rank program.
"""

import pytest

from repro.crypto.aead import get_aead
from repro.crypto.errors import AuthenticationError
from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.encmpi.pipeline import _chunk_header
from repro.encmpi.replay import ReplayError
from repro.models.cpu import ClusterSpec
from repro.simmpi import run_program
from repro.simmpi.faults import FaultAction, FaultInjector, target_route
from repro.simmpi.tracing import TraceRecorder

CLUSTER = ClusterSpec(nodes=2, cores_per_node=4)


def test_corruption_emits_auth_fail_event():
    injector = FaultInjector(target_route(0, 1, FaultAction.CORRUPT),
                             corrupt_bit=300)
    rec = TraceRecorder()

    def prog(ctx):
        enc = EncryptedComm(ctx, SecurityConfig())
        if ctx.rank == 0:
            enc.send(b"\x00" * 64, 1, tag=0)
            return "sent"
        try:
            enc.recv(0, 0)
            return "accepted"
        except AuthenticationError:
            return "rejected"

    res = run_program(2, prog, cluster=CLUSTER, trace=rec,
                      fault_injector=injector)
    assert res.results == ["sent", "rejected"]
    (fail,) = rec.events_in("aead", "auth_fail")
    assert fail.rank == 1
    assert rec.rank_counters(1).auth_failures == 1
    # the successful seal on rank 0 is still there
    assert len(rec.events_in("aead", "seal")) == 1
    assert not rec.events_in("aead", "open")  # rejection, not decryption


def test_duplicate_emits_replay_drop_event():
    """With replay_window configured, the duplicated envelope is dropped
    by the EncryptedComm itself — no hand-rolled guard in the program —
    and the drop is visible in the trace."""
    injector = FaultInjector(target_route(0, 1, FaultAction.DUPLICATE))
    rec = TraceRecorder()
    config = SecurityConfig(nonce_strategy="counter", replay_window=16)

    def prog(ctx):
        enc = EncryptedComm(ctx, config)
        if ctx.rank == 0:
            enc.send(b"pay me once", 1, tag=0)
            return ["sent"]
        outcomes = []
        for _ in range(2):  # original + duplicate both arrive
            try:
                enc.recv(0, 0)
                outcomes.append("accepted")
            except ReplayError:
                outcomes.append("replay-blocked")
        return outcomes

    res = run_program(2, prog, cluster=CLUSTER, trace=rec,
                      fault_injector=injector)
    assert res.results[1] == ["accepted", "replay-blocked"]
    (drop,) = rec.events_in("aead", "replay_drop")
    assert drop.rank == 1
    assert drop.data["src"] == 0
    assert drop.data["counter"] == 0
    assert rec.rank_counters(1).replay_drops == 1
    # exactly one open: the original; the replay never reached the AEAD
    assert len(rec.events_in("aead", "open")) == 1


def test_duplicate_without_replay_window_is_accepted_twice():
    """The paper's threat model (no replay protection): both copies
    decrypt fine and no replay_drop event appears — the gap the
    replay_window option closes."""
    injector = FaultInjector(target_route(0, 1, FaultAction.DUPLICATE))
    rec = TraceRecorder()
    config = SecurityConfig(nonce_strategy="counter")  # replay_window=0

    def prog(ctx):
        enc = EncryptedComm(ctx, config)
        if ctx.rank == 0:
            enc.send(b"pay me twice", 1, tag=0)
            return None
        return [enc.recv(0, 0)[0] for _ in range(2)]

    res = run_program(2, prog, cluster=CLUSTER, trace=rec,
                      fault_injector=injector)
    assert res.results[1] == [b"pay me twice", b"pay me twice"]
    assert not rec.events_in("aead", "replay_drop")
    assert len(rec.events_in("aead", "open")) == 2


def test_duplicate_clone_preserves_payload_bytes():
    """The injector's clone must carry the original's payload_bytes
    (collective-internal envelopes pack headers, so len(payload) would
    over-count) — otherwise duplicated traffic shows payload > wire."""
    from repro.simmpi.message import Envelope

    env = Envelope(src=0, dst=1, tag=0, comm_id=0,
                   payload=b"\x00\x00\x00\x64" + b"g" * 100,
                   wire_bytes=100, payload_bytes=100)
    injector = FaultInjector(lambda _env: FaultAction.DUPLICATE)
    original, clone = injector.apply(env)
    assert clone.payload_bytes == original.payload_bytes == 100
    assert clone.wire_bytes == 100


def _sealed_frame(config, counter: int, payload: bytes,
                  header: bytes = b"") -> bytes:
    """A frame as rank 0 would seal it: header || counter nonce || ct."""
    nonce = (0).to_bytes(4, "big") + counter.to_bytes(8, "big")
    aead = get_aead(config.key, config.backend)
    return header + nonce + aead.seal(nonce, payload, header)


@pytest.mark.parametrize("mode", ["serial", "cryptmpi"])
def test_failed_authentication_never_moves_the_replay_window(mode):
    """A counter joins the replay window only once its frame's tag
    verifies (RFC 4303 §3.4.3).  A corrupted copy must not burn the
    counter of the intact resend that follows it, and a forged frame
    with a far-future counter must not push legitimate traffic out of
    the window; a true duplicate is still dropped before the AEAD."""
    config = SecurityConfig(nonce_strategy="counter", replay_window=64,
                            crypto=CryptoPlan(mode=mode, bytework="real"))

    def header(seq: int) -> bytes:
        return _chunk_header(seq, 1, 0) if mode == "cryptmpi" else b""

    intact = _sealed_frame(config, 0, b"message zero", header(0))
    corrupted = bytearray(intact)
    corrupted[-1] ^= 0x01
    # a cleartext nonce with counter 10**6, then 28 bytes of garbage
    forged = header(1) + (0).to_bytes(4, "big") + (10**6).to_bytes(8, "big") \
        + bytes(28)
    frames = [bytes(corrupted), intact, intact, forged,
              _sealed_frame(config, 1, b"message one", header(2))]

    def prog(ctx):
        if ctx.rank == 0:
            for frame in frames:  # raw frames on the plain communicator
                ctx.comm.send(frame, 1, tag=0)
            return None
        enc = EncryptedComm(ctx, config)
        outcomes = []
        for _ in frames:
            try:
                outcomes.append(enc.recv(0, 0)[0])
            except ReplayError:
                outcomes.append("replay")
            except AuthenticationError:
                outcomes.append("auth_fail")
        return outcomes, enc.auth_failures, enc.replay_drops

    res = run_program(2, prog, cluster=CLUSTER)
    outcomes, auth_failures, replay_drops = res.results[1]
    assert outcomes == ["auth_fail", b"message zero", "replay", "auth_fail",
                        b"message one"]
    assert (auth_failures, replay_drops) == (2, 1)


def test_frame_too_short_for_a_nonce_fails_authentication():
    """With a replay window armed, a frame too short to carry a nonce is
    an authentication failure, not a nonce-parsing error."""
    config = SecurityConfig(nonce_strategy="counter", replay_window=64,
                            crypto=CryptoPlan(bytework="real"))

    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"short", 1, tag=0)
            return None
        enc = EncryptedComm(ctx, config)
        try:
            enc.recv(0, 0)
        except AuthenticationError:
            return "auth_fail"
        return "accepted"

    res = run_program(2, prog, cluster=CLUSTER)
    assert res.results[1] == "auth_fail"
