"""MPI_Alltoall / MPI_Alltoallv.

One algorithm serves both, chosen by the largest block a rank sends:

- up to ``ALLTOALL_PAIRWISE_THRESHOLD`` (32 KiB) per pair: post all
  irecvs, all isends, waitall (it also matches the paper's observed
  1 B alltoall baselines, which are dominated by the ~p per-message
  sender overheads);
- above it: pairwise exchange — p-1 phases of sendrecv with partner
  ``rank ^ phase`` (power-of-two) or a rotation otherwise, so only one
  large transfer per rank is in flight at a time.

Blocks may differ in size, so ``alltoallv`` is ``alltoall`` under its
MPI name.  MPICH's Bruck algorithm for small blocks and its throttled
medium-size exchange are not modeled.
"""

from __future__ import annotations

from typing import Sequence

from repro.simmpi.collectives.common import is_power_of_two
from repro.simmpi.message import OpaquePayload

ALLTOALL_PAIRWISE_THRESHOLD = 32 * 1024


def alltoall(handle, chunks: Sequence[bytes]):
    """Chunk i of *chunks* goes to rank i; returns the received chunks."""
    if len(chunks) != handle.size:
        raise ValueError(
            f"alltoall needs exactly {handle.size} chunks, got {len(chunks)}"
        )
    # OpaquePayload frames pass through untouched (zero-copy fan-out);
    # everything else is normalized to immutable bytes.
    chunks = [c if isinstance(c, OpaquePayload) else bytes(c) for c in chunks]
    tag = handle._next_coll_tag()
    if handle.size == 1:
        return [chunks[0]]
    if max(len(c) for c in chunks) <= ALLTOALL_PAIRWISE_THRESHOLD:
        return (yield from _alltoall_batched(handle, chunks, tag))
    return (yield from _alltoall_pairwise(handle, chunks, tag))


#: MPI_Alltoallv: the same selection over blocks of unequal size
alltoallv = alltoall


def _alltoall_batched(handle, chunks: list[bytes], tag: int):
    size, rank = handle.size, handle.rank
    recvs = {}
    # Post receives for every peer first (MPICH posts the irecvs up
    # front), then issue sends rotated so peers do not all hammer rank 0
    # simultaneously.
    for offset in range(1, size):
        src = (rank - offset) % size
        recvs[src] = handle.irecv(src, tag, _internal=True)
    sends = []
    for offset in range(1, size):
        dst = (rank + offset) % size
        sends.append(
            (yield from handle.co_isend(chunks[dst], dst, tag, _internal=True))
        )
    result: list[bytes] = [b""] * size
    result[rank] = chunks[rank]
    for src, req in recvs.items():
        result[src] = yield from req.co_wait()
    yield from handle.co_waitall(sends)
    return result


def _alltoall_pairwise(handle, chunks: list[bytes], tag: int):
    size, rank = handle.size, handle.rank
    result: list[bytes] = [b""] * size
    result[rank] = chunks[rank]
    pow2 = is_power_of_two(size)
    for phase in range(1, size):
        if pow2:
            partner = rank ^ phase
        else:
            partner = (rank + phase) % size
        send_to = partner
        recv_from = partner if pow2 else (rank - phase) % size
        received, _status = yield from handle.co_sendrecv(
            chunks[send_to], send_to, recv_from, tag, tag, _internal=True
        )
        result[recv_from] = received
    return result
