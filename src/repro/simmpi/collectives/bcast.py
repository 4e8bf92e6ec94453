"""MPI_Bcast: binomial tree (short), scatter + recursive-doubling
allgather (medium), or scatter + ring allgather (long).

MPICH's selection: binomial below 12 KiB (or tiny communicators);
above that, a binomial scatter of per-rank chunks followed by an
allgather — recursive doubling up to 512 KiB on power-of-two
communicators (log p latency-friendly steps), ring beyond (bandwidth-
friendly, p-1 neighbour steps).

As in MPI, every rank passes the same element count: the root supplies
the payload, non-roots supply ``nbytes`` so each rank independently
selects the same algorithm and chunk geometry.
"""

from __future__ import annotations

from repro.simmpi.collectives.common import (
    binomial_children,
    binomial_parent,
    is_power_of_two,
    rank_of,
    split_chunks,
    subtree_span,
    vrank_of,
)
from repro.simmpi.message import OpaquePayload

#: MPICH's small/large bcast switch (bytes).
BCAST_LONG_THRESHOLD = 12 * 1024
#: above this total size (or on non-power-of-two communicators) the
#: allgather phase uses the ring instead of recursive doubling.
BCAST_RING_THRESHOLD = 512 * 1024


def bcast(handle, data: bytes | None, root: int = 0, *, nbytes: int | None = None):
    size = handle.size
    handle._check_peer(root)
    if handle.rank == root:
        if isinstance(data, OpaquePayload):
            # A single materialization: bcast slices the payload into
            # per-rank chunks, which zero-copy frames cannot support.
            data = data.to_bytes()
        elif isinstance(data, (bytes, bytearray, memoryview)):
            data = bytes(data)
        else:
            raise TypeError("root must provide a bytes payload")
        if nbytes is not None and nbytes != len(data):
            raise ValueError(f"nbytes={nbytes} disagrees with len(data)={len(data)}")
        nbytes = len(data)
    else:
        if nbytes is None:
            raise ValueError(
                "non-root ranks must pass nbytes (MPI_Bcast requires a "
                "matching count on every rank)"
            )
        data = None
    tag = handle._next_coll_tag()
    if size == 1:
        return data  # type: ignore[return-value]
    if nbytes <= BCAST_LONG_THRESHOLD:
        return (yield from _bcast_binomial(handle, data, root, tag))
    return (yield from _bcast_scatter_allgather(handle, data, nbytes, root, tag))


def _bcast_binomial(handle, data: bytes | None, root: int, tag: int):
    size = handle.size
    v = vrank_of(handle.rank, root, size)
    if v != 0:
        parent = rank_of(binomial_parent(v), root, size)
        data = yield from handle.irecv(parent, tag, _internal=True).co_wait()
    assert data is not None
    for child in binomial_children(v, size):
        yield from handle.co_send(data, rank_of(child, root, size), tag,
                                  _internal=True)
    return data


def _bcast_scatter_allgather(
    handle, data: bytes | None, nbytes: int, root: int, tag: int
):
    size = handle.size
    v = vrank_of(handle.rank, root, size)
    # Chunk geometry is a pure function of (nbytes, size): identical on
    # every rank.
    chunk_sizes = [len(c) for c in split_chunks(b"\x00" * nbytes, size)]

    # --- binomial scatter of the chunk ranges -----------------------------
    if v == 0:
        assert data is not None
        chunks = split_chunks(data, size)
        owned = {i: chunks[i] for i in range(size)}
    else:
        parent = rank_of(binomial_parent(v), root, size)
        payload = yield from handle.irecv(parent, tag,
                                          _internal=True).co_wait()
        lo, hi = subtree_span(v, size)
        owned = {}
        offset = 0
        for idx in range(lo, hi):
            owned[idx] = payload[offset : offset + chunk_sizes[idx]]
            offset += chunk_sizes[idx]
        if offset != len(payload):
            raise AssertionError("scatter span length mismatch")
    for child in binomial_children(v, size):
        lo, hi = subtree_span(child, size)
        payload = b"".join(owned[i] for i in range(lo, hi))
        yield from handle.co_send(payload, rank_of(child, root, size), tag,
                                  _internal=True)

    # --- allgather of the per-rank chunks -----------------------------------
    if nbytes <= BCAST_RING_THRESHOLD and is_power_of_two(size):
        gathered = yield from _allgather_recursive_doubling(
            handle, v, owned[v], chunk_sizes, root, tag
        )
    else:
        gathered = yield from _allgather_ring(handle, v, owned[v], root, tag)
    return b"".join(gathered[i] for i in range(size))


def _allgather_ring(handle, v: int, own_chunk: bytes, root: int, tag: int):
    size = handle.size
    right = rank_of((v + 1) % size, root, size)
    left = rank_of((v - 1) % size, root, size)
    gathered = {v: own_chunk}
    send_idx = v
    for _step in range(size - 1):
        out = gathered[send_idx]
        received, _status = yield from handle.co_sendrecv(
            out, right, left, tag, tag, _internal=True)
        recv_idx = (send_idx - 1) % size
        gathered[recv_idx] = received
        send_idx = recv_idx
    return gathered


def _allgather_recursive_doubling(
    handle, v: int, own_chunk: bytes, chunk_sizes: list[int], root: int, tag: int
):
    """log2(p) exchange steps in virtual-rank space; each step doubles
    the contiguous chunk range a rank holds.  Chunk boundaries are a
    pure function of (nbytes, p), so ranges travel without headers."""
    size = handle.size
    gathered = {v: own_chunk}
    lo = hi = v  # inclusive contiguous range [lo, hi] currently held
    mask = 1
    while mask < size:
        partner_v = v ^ mask
        # The partner holds the mirrored range within the 2*mask block.
        block_start = (v // (2 * mask)) * (2 * mask)
        if v & mask:
            their_lo, their_hi = block_start, block_start + mask - 1
        else:
            their_lo, their_hi = block_start + mask, block_start + 2 * mask - 1
        payload = b"".join(gathered[i] for i in range(lo, hi + 1))
        received, _status = yield from handle.co_sendrecv(
            payload, rank_of(partner_v, root, size),
            rank_of(partner_v, root, size), tag, tag, _internal=True,
        )
        offset = 0
        for i in range(their_lo, their_hi + 1):
            gathered[i] = received[offset : offset + chunk_sizes[i]]
            offset += chunk_sizes[i]
        if offset != len(received):
            raise AssertionError("recursive-doubling range length mismatch")
        lo, hi = min(lo, their_lo), max(hi, their_hi)
        mask <<= 1
    return gathered
