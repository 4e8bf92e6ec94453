"""Allgather places blocks by rank offset: nothing but data crosses the wire.

A corrupted bit of rank 0's block therefore lands in that block alone:
plain allgather delivers it flipped to exactly the ranks whose copy
passed through the corrupted route, and the encrypted allgather fails
authentication.  Contributions must be equal-sized on both algorithms.
"""

import pytest

from repro.crypto.errors import AuthenticationError
from repro.des.process import ProcessFailed
from repro.encmpi import CryptoPlan, EncryptedComm, SecurityConfig
from repro.simmpi import run_program
from repro.simmpi.faults import FaultPlan

BLOCK = 16
#: rank 1 receives rank 0's block directly; on 4 ranks rank 3 receives
#: it from rank 1 in the second round of recursive doubling
FLIPPED_AT = {2: {1}, 4: {1, 3}}


def _block(rank: int) -> bytes:
    return bytes((rank * 37 + i) % 256 for i in range(BLOCK))


def _corrupt_first_hop(bit: int):
    return FaultPlan(corrupt=1.0, src=0, dst=1, corrupt_bit=bit).build()


@pytest.mark.parametrize("nranks", [2, 4])
def test_plain_allgather_flips_exactly_the_corrupted_bit(nranks):
    def program(ctx):
        return ctx.comm.allgather(_block(ctx.rank))

    for bit in range(64):
        result = run_program(nranks, program,
                             fault_injector=_corrupt_first_hop(bit))
        flipped = bytearray(_block(0))
        flipped[bit // 8] ^= 1 << (bit % 8)
        for rank, blocks in enumerate(result.results):
            expected = [_block(r) for r in range(nranks)]
            if rank in FLIPPED_AT[nranks]:
                expected[0] = bytes(flipped)
            assert blocks == expected, (bit, rank)


@pytest.mark.parametrize("nranks", [2, 4])
def test_encrypted_allgather_fails_authentication(nranks):
    def program(ctx):
        enc = EncryptedComm(ctx, SecurityConfig(
            crypto=CryptoPlan(bytework="real")))
        return enc.allgather(_block(ctx.rank))

    for bit in range(64):
        with pytest.raises(ProcessFailed) as info:
            run_program(nranks, program,
                        fault_injector=_corrupt_first_hop(bit))
        assert isinstance(info.value.__cause__, AuthenticationError), bit


@pytest.mark.parametrize("nranks", [2, 3])  # recursive doubling, ring
def test_unequal_contributions_are_rejected(nranks):
    def program(ctx):
        extra = 1 if ctx.rank == nranks - 1 else 0
        return ctx.comm.allgather(bytes(BLOCK + extra))

    sizes = rf"({BLOCK}|{BLOCK + 1})"
    with pytest.raises(ProcessFailed,
                       match=rf"rank \d got {sizes} bytes from rank \d, "
                             rf"expected {sizes}"):
        run_program(nranks, program)
