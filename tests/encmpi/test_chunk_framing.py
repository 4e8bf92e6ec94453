"""Fuzzing the cryptmpi chunk framing: the receiver fails closed.

Every chunk frame is ``u32 seq || u32 total || u32 index || nonce || ct``
with the header authenticated as AAD.  Frame 0's header is special: its
``total`` sizes the sibling receives and its ``seq`` routes them, so it
must authenticate before it is read.  Each test puts a damaged frame on
the wire (a flipped header bit, a truncated frame, a repeated or
out-of-range index, a duplicated frame, a stale copy of an earlier
message's frame 0) and checks that the receiver
raises an :class:`AuthenticationError` that names the frame, instead of
hanging or sizing a huge receive list, and that resilience recovers
where a clean copy of the frame is still on its way.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.aead import WIRE_OVERHEAD
from repro.des.process import ProcessFailed
from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.encmpi.pipeline import CHUNK_TAG_BASE, HEADER_SIZE
from repro.models.cpu import ClusterSpec
from repro.simmpi import run_program
from repro.simmpi.faults import FaultAction, FaultInjector, FaultPlan
from repro.simmpi.resilience import ResiliencePolicy

TWO_NODES = ClusterSpec(nodes=2, cores_per_node=4)
TAG = 5
CHUNK = 1024
PLAN = CryptoPlan(mode="cryptmpi", chunk_bytes=CHUNK, helper_cores=1,
                  bytework="real")
PAYLOAD = bytes(i % 251 for i in range(4 * CHUNK))
FRAME0_REJECTED = r"chunk frame 0 from rank 0 \(tag 5\) failed authentication"


def _send_recv(**run_kwargs):
    """Rank 0 sends PAYLOAD as one cryptmpi message; rank 1 returns it."""

    def program(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=PLAN))
        if ctx.rank == 0:
            enc.send(PAYLOAD, 1, tag=TAG)
            return None
        return enc.recv(0, TAG)[0]

    return run_program(2, program, cluster=TWO_NODES, **run_kwargs)


def _raw(frames):
    """Rank 0 puts ``frames(enc)`` — ``(tag, wire)`` pairs — on the wire
    as they are; rank 1 receives one cryptmpi message."""

    def program(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=PLAN))
        if ctx.rank == 0:
            for tag, wire in frames(enc):
                ctx.comm.send(wire, 1, tag, _internal=tag >= CHUNK_TAG_BASE)
            return None
        return enc.recv(0, TAG)[0]

    return run_program(2, program, cluster=TWO_NODES)


def _sealed(enc, total, index, seq=0):
    """A frame sealed under the job key with any header: what a keyed
    but faulty sender would emit."""
    chunk = PAYLOAD[index * CHUNK:(index + 1) * CHUNK] or b"x" * CHUNK
    return enc._pipe._seal_chunk(seq, index, total, chunk,
                                 enc._aad_for_peer(enc.rank, TAG), 0.0)


def _first_delivery_of_frame0(action):
    """Policy: *action* on the first delivery on the user tag only."""
    hit = []

    def policy(env):
        if env.tag == TAG and not hit:
            hit.append(env)
            return action
        return FaultAction.DELIVER

    return policy


@settings(max_examples=24, deadline=None)
@given(bit=st.integers(0, 8 * HEADER_SIZE - 1))
@example(bit=0)   # seq: siblings would be awaited on another tag
@example(bit=32)  # top byte of total: 2**24 extra sibling receives
@example(bit=63)  # low byte of total: receives for frames never sent
@example(bit=95)  # index
def test_forged_first_header_fails_closed(bit):
    plan = FaultPlan(corrupt=1.0, src=0, dst=1, tag=TAG, corrupt_bit=bit)
    with pytest.raises(ProcessFailed, match=FRAME0_REJECTED):
        _send_recv(fault_injector=plan.build())


@pytest.mark.parametrize("bit", [0, 32, 63, 95, 8 * HEADER_SIZE + 40])
def test_forged_first_header_recovers_with_resilience(bit):
    injector = FaultInjector(_first_delivery_of_frame0(FaultAction.CORRUPT),
                             corrupt_bit=bit)
    result = _send_recv(fault_injector=injector,
                        resilience=ResiliencePolicy(max_retries=4,
                                                    timeout=1e-3))
    assert injector.injected[FaultAction.CORRUPT] == 1
    assert result.results[1] == PAYLOAD


@pytest.mark.parametrize("keep", [0, 3, HEADER_SIZE,
                                  HEADER_SIZE + WIRE_OVERHEAD - 1])
def test_truncated_first_frame_fails_closed(keep):
    def frames(enc):
        yield TAG, _sealed(enc, total=4, index=0)[:keep]

    with pytest.raises(ProcessFailed, match=FRAME0_REJECTED):
        _raw(frames)


def test_repeated_index_fails_closed():
    def frames(enc):
        yield TAG, _sealed(enc, total=3, index=0)
        yield CHUNK_TAG_BASE, _sealed(enc, total=3, index=1)
        yield CHUNK_TAG_BASE, _sealed(enc, total=3, index=1)

    with pytest.raises(ProcessFailed,
                       match="expected 2/3 of message 0, got 1/3"):
        _raw(frames)


@pytest.mark.parametrize("total, index, error", [
    (0, 0, "bad chunk count 0"),
    (3, 7, "expected 0/3 of message 0, got 7/3"),
])
def test_out_of_range_first_header_fails_closed(total, index, error):
    def frames(enc):
        yield TAG, _sealed(enc, total=total, index=index)
        for i in range(1, total):
            yield CHUNK_TAG_BASE, _sealed(enc, total=total, index=i)

    with pytest.raises(ProcessFailed, match=error):
        _raw(frames)


def test_out_of_range_sibling_index_fails_closed():
    def frames(enc):
        yield TAG, _sealed(enc, total=3, index=0)
        yield CHUNK_TAG_BASE, _sealed(enc, total=3, index=1)
        yield CHUNK_TAG_BASE, _sealed(enc, total=3, index=3)

    with pytest.raises(ProcessFailed,
                       match="expected 2/3 of message 0, got 3/3"):
        _raw(frames)


def test_duplicated_sibling_frame_fails_closed():
    # every sibling of message 0 arrives twice: chunk 2's receive gets
    # the second copy of chunk 1
    plan = FaultPlan(duplicate=1.0, src=0, dst=1, tag=CHUNK_TAG_BASE)
    with pytest.raises(ProcessFailed,
                       match="expected 2/4 of message 0, got 1/4"):
        _send_recv(fault_injector=plan.build())


def test_duplicated_first_frame_leaves_the_message_intact():
    injector = FaultInjector(
        _first_delivery_of_frame0(FaultAction.DUPLICATE))
    result = _send_recv(fault_injector=injector)
    assert injector.injected[FaultAction.DUPLICATE] == 1
    assert result.results[1] == PAYLOAD


def _exchange_with_duplicates(seed, **run_kwargs):
    """Two ranks trade 12 cryptmpi messages of 3,000 B (three chunks
    each) while the wire duplicates a fifth of the frame 0s, so stale
    but authentic copies of earlier messages' frame 0 arrive."""
    security = SecurityConfig(nonce_strategy="counter", replay_window=64,
                              bind_header=True, crypto=PLAN)
    faults = FaultPlan(duplicate=0.2, seed=seed, tag=TAG)

    def program(ctx):
        enc = EncryptedComm(ctx, security)
        peer = 1 - ctx.rank
        got = []
        for i in range(12):
            rreq = enc.irecv(peer, TAG)
            sreq = enc.isend(bytes([i]) * 3000, peer, TAG)
            got.append(rreq.wait())
            sreq.wait()
        return got

    return run_program(2, program, cluster=TWO_NODES,
                       fault_injector=faults.build(), **run_kwargs)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replayed_first_frame_is_a_replay_error(seed):
    # a stale frame 0 must not route sibling receives onto its old
    # message's tag (which deadlocked both ranks)
    with pytest.raises(ProcessFailed, match="ReplayError"):
        _exchange_with_duplicates(seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replayed_first_frame_recovers_with_resilience(seed):
    result = _exchange_with_duplicates(
        seed, resilience=ResiliencePolicy(max_retries=8, timeout=2e-4))
    expected = [bytes([i]) * 3000 for i in range(12)]
    assert result.results == [expected, expected]
    assert result.resilience.nacks > 0
