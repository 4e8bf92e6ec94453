"""MPI_Allgather: recursive doubling (short, power-of-two) or ring.

MPICH uses recursive doubling for short payloads on power-of-two
communicators and the ring algorithm for long payloads or non-power-of-
two sizes; the classic threshold is 512 KiB of *total* gathered data.
Blocks carry no header: like MPICH, both algorithms place a block by
its rank offset, so every rank must contribute the same size.
"""

from __future__ import annotations

from repro.simmpi.collectives.common import is_power_of_two
from repro.simmpi.message import as_bytes

ALLGATHER_LONG_THRESHOLD = 512 * 1024


def allgather(handle, data: bytes):
    size = handle.size
    data = as_bytes(data)
    tag = handle._next_coll_tag()
    if size == 1:
        return [data]
    total = len(data) * size
    if is_power_of_two(size) and total <= ALLGATHER_LONG_THRESHOLD:
        return (yield from _allgather_recursive_doubling(handle, data, tag))
    return (yield from _allgather_ring(handle, data, tag))


def _check_reply(rank: int, partner: int, got: int, expected: int) -> None:
    if got != expected:
        raise ValueError(
            f"allgather: rank {rank} got {got} bytes from rank {partner}, "
            f"expected {expected}; every rank must contribute the same size")


def _allgather_recursive_doubling(handle, data: bytes, tag: int):
    """Before round *mask* a rank holds the *mask* blocks of its aligned
    group; it sends them joined in index order and slices the partner's
    reply into *mask* blocks of its own block size."""
    size, rank = handle.size, handle.rank
    n = len(data)
    blocks: list = [None] * size
    blocks[rank] = data
    mask = 1
    while mask < size:
        partner = rank ^ mask
        mine, theirs = rank & ~(mask - 1), partner & ~(mask - 1)
        rreq = handle.irecv(partner, tag, _internal=True)
        sreq = yield from handle.co_isend(b"".join(blocks[mine:mine + mask]),
                                          partner, tag, _internal=True)
        yield from sreq.co_wait()
        received = yield from rreq.co_wait()
        _check_reply(rank, partner, len(received), mask * n)
        for j in range(mask):
            blocks[theirs + j] = received[j * n:(j + 1) * n]
        mask <<= 1
    return blocks


def _allgather_ring(handle, data: bytes, tag: int):
    size, rank = handle.size, handle.rank
    right = (rank + 1) % size
    left = (rank - 1) % size
    blocks: list = [None] * size
    blocks[rank] = data
    send_idx = rank
    for _step in range(size - 1):
        received, _status = yield from handle.co_sendrecv(
            blocks[send_idx], right, left, tag, tag, _internal=True)
        _check_reply(rank, left, len(received), len(data))
        send_idx = (send_idx - 1) % size
        blocks[send_idx] = received
    return blocks
