"""The cryptmpi chunk path copies no payload bytes under modeled bytework.

Each chunk frame is a window ``[start, stop)`` on the sender's buffer.
A receiver whose accepted frames tile one buffer in index order hands
that buffer back itself; any other outcome (real bytework, a corrupted
or replaced frame) joins the opened plaintexts, so a tampered message
never comes back as the untouched sender buffer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import NONCE_SIZE
from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.encmpi.pipeline import CHUNK_TAG_BASE, HEADER_SIZE
from repro.models.cpu import ClusterSpec
from repro.simmpi import run_program
from repro.simmpi.faults import FaultAction, FaultInjector, FaultPlan
from repro.simmpi.resilience import ResiliencePolicy

TWO_NODES = ClusterSpec(nodes=2, cores_per_node=4)
TAG = 7
#: bit 3 of a frame's first payload byte (after the header and nonce)
PAYLOAD_BIT = 8 * (HEADER_SIZE + NONCE_SIZE) + 3


def _payload(size: int) -> bytes:
    return bytes((i * 7 + 3) % 256 for i in range(size))


def _send_recv(payload: bytes, plan: CryptoPlan, **run_kwargs):
    """Rank 0 sends *payload* as one message; rank 1 returns what it got."""

    def program(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(crypto=plan))
        if ctx.rank == 0:
            enc.send(payload, 1, tag=TAG)
            return None
        return enc.recv(0, TAG)[0]

    return run_program(2, program, cluster=TWO_NODES, **run_kwargs)


@settings(max_examples=40, deadline=None)
@given(chunk_bytes=st.integers(1, 300), data=st.data(),
       helper_cores=st.integers(0, 3),
       bytework=st.sampled_from(["modeled", "real"]))
def test_receiver_gets_exactly_the_sent_bytes(chunk_bytes, data,
                                              helper_cores, bytework):
    # 0 to three chunks plus a remainder
    size = data.draw(st.integers(0, 4 * chunk_bytes - 1), label="size")
    payload = _payload(size)
    plan = CryptoPlan(mode="cryptmpi", chunk_bytes=chunk_bytes,
                      helper_cores=helper_cores, bytework=bytework)
    got = _send_recv(payload, plan).results[1]
    assert type(got) is bytes
    assert got == payload
    if bytework == "modeled":
        assert got is payload  # the sender's buffer itself, never copied


@pytest.mark.parametrize("helper_cores", [0, 2])
def test_corrupted_siblings_come_back_flipped_not_as_the_sender_buffer(
        helper_cores):
    chunk = 256
    payload = _payload(3 * chunk + 100)
    plan = CryptoPlan(mode="cryptmpi", chunk_bytes=chunk,
                      helper_cores=helper_cores, bytework="modeled")
    faults = FaultPlan(corrupt=1.0, tag=CHUNK_TAG_BASE,
                       corrupt_bit=PAYLOAD_BIT)
    got = _send_recv(payload, plan, fault_injector=faults.build()).results[1]
    expected = bytearray(payload)
    for index in (1, 2, 3):  # every sibling frame; frame 0 is on TAG
        expected[index * chunk] ^= 1 << 3
    assert got is not payload
    assert type(got) is bytes
    assert got == bytes(expected)


def _recover_from_first_sibling_corrupted(payload, bytework, bit):
    """One message whose first sibling frame arrives with *bit* flipped,
    under a resilience policy that NACKs it and re-posts its receive."""
    hit = []

    def first_sibling(env):
        if env.tag == CHUNK_TAG_BASE and not hit:
            hit.append(env)
            return FaultAction.CORRUPT
        return FaultAction.DELIVER

    injector = FaultInjector(first_sibling, corrupt_bit=bit)
    plan = CryptoPlan(mode="cryptmpi", chunk_bytes=256, helper_cores=1,
                      bytework=bytework)
    result = _send_recv(payload, plan, fault_injector=injector,
                        resilience=ResiliencePolicy(max_retries=4,
                                                    timeout=1e-3))
    assert injector.injected[FaultAction.CORRUPT] == 1
    assert result.resilience.nacks == 1
    return result.results[1]


def test_real_bytework_nacks_a_tampered_chunk_and_recovers():
    payload = _payload(3 * 256 + 100)
    got = _recover_from_first_sibling_corrupted(payload, "real", PAYLOAD_BIT)
    assert got == payload


def test_modeled_retransmission_still_tiles_the_sender_buffer():
    # a flipped index bit fails the framing check even without a tag;
    # the frame accepted in its place is a window on the sender's buffer
    payload = _payload(3 * 256 + 100)
    index_bit = 8 * (HEADER_SIZE - 1)
    got = _recover_from_first_sibling_corrupted(payload, "modeled",
                                                index_bit)
    assert got is payload
